// Cluster manager: maintains the cluster list, handles sign-on / sign-off,
// allocates logical site ids (three strategies from paper §4), gossips
// site information "by and by", tracks load statistics for help-target
// selection, and runs the heartbeat failure detector feeding the crash
// manager.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/status.hpp"
#include "runtime/cluster_info.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"

namespace sdvm {

class Site;

class ClusterManager {
 public:
  explicit ClusterManager(Site& site) : site_(site) {}

  // --- identity / membership ---------------------------------------------
  /// First site of a new cluster: self-assigns id 1 (implicitly the central
  /// contact site for id allocation).
  void bootstrap();

  /// Joins via a site already in the cluster ("the (ip) address of a site
  /// which is already part of the cluster" is all that is needed).
  void join(const std::string& contact_address,
            std::function<void(Status)> done);

  /// Graceful departure: relocation is coordinated by the Site; this
  /// broadcasts the sign-off notice with our successor.
  void announce_sign_off(SiteId successor);

  [[nodiscard]] bool joined() const { return local_id_ != kInvalidSite; }
  [[nodiscard]] SiteId local_id() const { return local_id_; }

  // --- cluster list --------------------------------------------------------
  [[nodiscard]] Result<std::string> physical_address(SiteId id) const;
  [[nodiscard]] const SiteInfo* find(SiteId id) const;
  [[nodiscard]] std::vector<SiteId> known_sites(bool alive_only = true) const;
  [[nodiscard]] std::size_t cluster_size() const;

  /// Follows sign-off successor chains to a live site (routing for
  /// messages addressed to departed sites' memory directories).
  [[nodiscard]] SiteId resolve_successor(SiteId id) const;

  /// Load-informed help-target choice: "choose a site which is probably
  /// not idle itself" — prefers the known site with the most queued work.
  [[nodiscard]] std::optional<SiteId> pick_help_target(
      const std::vector<SiteId>& exclude = {});

  /// Picks a live site other than us (round-robin-ish) for relocation and
  /// checkpoint placement.
  [[nodiscard]] std::optional<SiteId> pick_any_other();

  /// Live sites advertising themselves as code distribution sites (§4).
  [[nodiscard]] std::vector<SiteId> code_distribution_sites() const;

  // --- maintenance ----------------------------------------------------------
  void handle(const SdMessage& msg);
  /// Periodic: emits heartbeats, checks failure timeouts, gossips.
  void on_tick();
  /// Refreshes our own SiteInfo (load stats) before it is piggybacked.
  void refresh_local_info();
  /// Merges a received SiteInfo (gossip, piggyback) — higher version wins.
  void merge(const SiteInfo& info);
  [[nodiscard]] SiteInfo local_info() const;

  /// Marks a site dead (failure detector or external verdict) and gossips
  /// the fact. Idempotent.
  void mark_dead(SiteId id, bool gossip);

  /// Liveness input: any message from `src` proves it alive right now.
  void note_heard(SiteId src);

  /// Records (and optionally gossips) that `heir` took over a dead site's
  /// addresses — used by crash recovery to keep global addresses routable.
  void set_successor(SiteId dead, SiteId heir, bool gossip);

  /// Cheap gossip payload: every site we know, serialized.
  [[nodiscard]] std::vector<std::byte> encode_cluster_list() const;
  void absorb_cluster_list(ByteReader& r);

  /// Same wire format, restricted to the given ids (delta gossip).
  [[nodiscard]] std::vector<std::byte> encode_entries(
      const std::set<SiteId>& ids) const;

  /// Registers this manager's instruments ("cluster." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

  // The live "cluster.*" instruments that register_metrics() publishes
  // (bench/ablation_idalloc also reads them directly).
  metrics::Counter signon_messages;
  metrics::Counter sites_admitted;      // joins we completed
  metrics::Counter sign_offs_received;  // graceful leaves we learned of
  metrics::Counter deaths_detected;     // failure-detector verdicts
  metrics::Counter heartbeats_sent;
  metrics::Counter heartbeats_received;

 private:
  void handle_sign_on_request(const SdMessage& msg);
  void complete_sign_on(const SdMessage& original_request, SiteId new_id);
  void send_sign_on_reply(const std::string& address, SiteId new_id);
  [[nodiscard]] std::optional<SiteId> try_allocate_id();
  void request_id_block(std::function<void()> then);

  Site& site_;
  void retry_join();

  SiteId local_id_ = kInvalidSite;
  std::string join_contact_;
  std::map<SiteId, SiteInfo> sites_;
  std::function<void(Status)> join_done_;

  // Id allocation state (strategy-dependent).
  SiteId next_central_id_ = 2;        // central: site 1's counter
  std::vector<SiteId> id_block_;      // contingent: our pool of free ids
  SiteId contingent_next_ = 0;        // contingent: site 1's block counter
  static constexpr SiteId kBlockSize = 8;
  static constexpr SiteId kModuloServers = 4;
  SiteId modulo_counter_ = 0;         // modulo: multiples handed out so far

  // Sign-on requests parked while we fetch an id block.
  std::vector<SdMessage> parked_sign_ons_;
  Nanos last_heartbeat_ = 0;
  std::size_t gossip_cursor_ = 0;
  std::map<SiteId, Nanos> last_heard_;
  /// When each currently monitored peer *became* monitored. Ring
  /// positions shift as membership changes; a site that just became one
  /// of our predecessors gets a fresh timeout window before we judge its
  /// silence — it may only now be learning that we are its successor.
  std::map<SiteId, Nanos> monitored_since_;

  /// How many delta-gossip rounds a *membership transition* (new member,
  /// death, successor change) keeps being re-advertised. One round is not
  /// enough: the epidemic saturates within a tick or two and stops — a
  /// rack cut off when a death was detected would afterwards only learn
  /// of it through the rare full anti-entropy list. SWIM-style bounded
  /// re-dissemination (~log₂ n rounds at the 1000-site ceiling) floods a
  /// healed cut from every side within a second. Plain load/version
  /// churn stays single-shot — each tick refreshes it anyway.
  static constexpr int kRespreadRounds = 8;
  /// Entries changed since the last delta-gossip round, with the number
  /// of rounds they remain in the delta payload.
  void mark_dirty(SiteId id, int rounds = 1) {
    int& r = dirty_[id];
    r = std::max(r, rounds);
  }
  std::map<SiteId, int> dirty_;
  /// Liveness-cache maintenance. Version/load bumps (refresh_local_info
  /// runs every tick) must NOT touch the cache; only membership changes
  /// do, and those update it incrementally — a full rebuild per admission
  /// made building a 1000-site cluster quadratic in map walks.
  void invalidate_alive() { alive_dirty_ = true; }
  void refresh_alive_cache() const;
  void alive_entry_added(SiteId id);  // a new alive entry appeared
  void alive_entry_died(SiteId id);   // an alive entry's bit flipped off
  /// cluster_size() gates the per-pump starvation check and
  /// pick_help_target runs per help request; at 1000 sites neither may
  /// walk the membership map. alive_peers_ holds pointers into sites_
  /// nodes (stable: entries are never erased — death is terminal).
  mutable std::size_t alive_count_ = 0;
  mutable std::vector<const SiteInfo*> alive_peers_;
  mutable bool alive_dirty_ = true;
  std::uint64_t tick_count_ = 0;
};

}  // namespace sdvm
