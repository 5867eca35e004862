// Attraction memory: the COMA-style global memory (paper §3.1, §4). Holds
// the local part of the global memory, attracts requested objects to the
// local site transparently, and stores microframes until they have
// received all their parameters.
//
// The object directory is hash-sharded across the live membership
// (shard_map.hpp): each of the kNumShards logical shards has exactly one
// authoritative holder, guarded by an epoch-numbered ownership lease.
// Migration stays mediated (request → recall → grant), but the mediator
// for an object is its shard's lease holder, not the creating site — so
// directory authority survives the death of any single site. Requests
// carry the (shard, epoch) the sender believes; a non-authoritative
// receiver rejects with kShardStale and the sender re-routes — stale
// authority is never silently served. Shard handoff is a first-class
// protocol: graceful departure and remigration transfer entries with a
// bumped epoch (kShardHandoff); a crashed holder triggers deterministic
// successor takeover plus a rebuild from live-site re-registration
// (kShardRecover) and checkpoint restore. Microframes are not sharded:
// they keep living at their creating site, reached through the existing
// home-site + sign-off successor-chain routing.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "runtime/frame.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"
#include "runtime/shard_map.hpp"
#include "runtime/wait_cell.hpp"

namespace sdvm {

class Site;

/// A migratable global-memory object: an array of int64 words.
struct MemObject {
  GlobalAddress addr;
  ProgramId program;
  std::vector<std::int64_t> words;

  void serialize(ByteWriter& w) const {
    w.address(addr);
    w.program(program);
    w.u32(static_cast<std::uint32_t>(words.size()));
    for (auto v : words) w.i64(v);
  }
  static Result<MemObject> deserialize(ByteReader& r) {
    try {
      MemObject o;
      o.addr = r.address();
      o.program = r.program();
      std::uint32_t n = r.count(/*min_bytes_each=*/8);
      o.words.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) o.words.push_back(r.i64());
      return o;
    } catch (const DecodeError& e) {
      return Status::error(ErrorCode::kCorrupt,
                           std::string("bad MemObject: ") + e.what());
    }
  }
};

class AttractionMemory {
 public:
  explicit AttractionMemory(Site& site) : site_(site) {
    targets_.fill(kInvalidSite);
  }

  // --- microframes ---------------------------------------------------------
  /// Allocates a frame homed at the local site. If nparams == 0 the frame
  /// is immediately executable and goes straight to the scheduler.
  FrameId create_frame(ProgramId pid, MicrothreadId tid, std::size_t nparams,
                       int priority);

  /// Applies a parameter: locally if the frame lives here, otherwise an
  /// kApplyParam message travels to the frame's homesite. When the last
  /// parameter arrives the frame is handed to the scheduling manager.
  Status apply_param(GlobalAddress frame, std::size_t slot,
                     std::vector<std::byte> value);

  /// Takes an executable frame out of the store for the scheduler (the
  /// frame's "career" step from attraction memory to scheduling manager).
  [[nodiscard]] Result<Microframe> take_frame(FrameId id);

  /// Re-registers a frame received from another site (help reply): we are
  /// not its homesite, but it is executable and will be consumed here.
  void adopt_frame(Microframe frame);

  // --- global memory objects -------------------------------------------------
  GlobalAddress alloc_object(ProgramId pid, std::int64_t nwords);

  /// Word access from a microthread (site lock held): reads, or writes
  /// `store`, and returns word `index`. A non-local object starts a fetch
  /// and sets *wait; the access is then performed when the object lands
  /// and the cell carries the word.
  Result<std::int64_t> access(GlobalAddress addr, std::int64_t index,
                              std::optional<std::int64_t> store,
                              std::shared_ptr<WaitCell>* wait);

  /// Physically resident objects and the directory's view of an owner
  /// (tests, invariant checkers).
  [[nodiscard]] MemObject* local_object(GlobalAddress addr);
  [[nodiscard]] bool owns(GlobalAddress addr) const;
  [[nodiscard]] SiteId directory_owner(GlobalAddress addr) const;

  void handle(const SdMessage& msg);
  void drop_program(ProgramId pid);

  // --- sharded directory ----------------------------------------------------
  /// Periodic lease maintenance, driven from Site::bootstrap_tick at
  /// heartbeat cadence: renews held leases, remigrates shards whose
  /// rendezvous target moved, takes over shards whose holder died, times
  /// out rebuilds, and purges parked requests past their TTL.
  void shard_tick();

  /// The live-membership view changed (join, death, sign-off). Marks the
  /// cached rendezvous targets dirty and settles leases immediately so
  /// authority gaps close without waiting for the next tick.
  void on_membership_change();

  /// Where requests for `addr` should be sent right now: the shard's lease
  /// holder if it is believed alive, else the computed rendezvous target.
  [[nodiscard]] SiteId shard_route(GlobalAddress addr);

  /// True iff this site may answer authoritatively for the shard: it holds
  /// the lease AND its maintenance tick is current (a site whose tick has
  /// stalled past the lease TTL cannot have renewed and must stop
  /// answering — the split-brain guard).
  [[nodiscard]] bool shard_authoritative(std::uint32_t shard) const;

  /// Snapshot of the local lease table (invariant checkers).
  [[nodiscard]] std::array<ShardLease, kNumShards> shard_leases() const {
    return leases_;
  }
  [[nodiscard]] std::size_t shards_held() const;

  /// Highest lease epoch ever observed for the shard. Persisted with
  /// durable checkpoints; seeded on recovery so post-restart epochs never
  /// regress below what the failed cluster had reached.
  [[nodiscard]] std::uint64_t max_shard_epoch(std::uint32_t shard) const {
    return shard < kNumShards ? max_epoch_seen_[shard] : 0;
  }
  void seed_shard_epoch(std::uint32_t shard, std::uint64_t epoch) {
    if (shard < kNumShards && epoch > max_epoch_seen_[shard]) {
      max_epoch_seen_[shard] = epoch;
    }
  }

  // --- sign-off / checkpoint support ----------------------------------------
  /// Serializes everything (frames incl. state, objects, directory) for a
  /// program — used by checkpointing (all programs: pass kInvalid).
  [[nodiscard]] std::vector<std::byte> snapshot(ProgramId pid) const;
  void restore_snapshot(ByteReader& r);
  /// Moves all local state to `successor` on graceful sign-off.
  void relocate_all_to(SiteId successor);
  /// After sign-off: sends what a parked microthread left here onward.
  void relocate_leftovers();

  // --- introspection -----------------------------------------------------
  [[nodiscard]] std::size_t frame_count() const { return frames_.size(); }
  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }

  /// Homesite-directory snapshot: (address, current owner) for every
  /// object created here. Chaos invariant checkers use this to assert
  /// that no global address is owned by a departed site.
  [[nodiscard]] std::vector<std::pair<GlobalAddress, SiteId>>
  directory_snapshot() const {
    std::vector<std::pair<GlobalAddress, SiteId>> out;
    out.reserve(directory_.size());
    for (const auto& [addr, entry] : directory_) {
      out.emplace_back(addr, entry.owner);
    }
    return out;
  }

  /// Addresses of objects physically resident on this site (chaos
  /// invariant checkers: every owned object must be registered with a
  /// live shard holder — the no-orphan check across handoffs).
  [[nodiscard]] std::vector<GlobalAddress> owned_addresses() const {
    std::vector<GlobalAddress> out;
    out.reserve(objects_.size());
    for (const auto& [addr, obj] : objects_) out.push_back(addr);
    return out;
  }

  /// Registers this manager's instruments ("mem." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

  // The live "mem.*" instruments that register_metrics() publishes.
  metrics::Counter migrations_in;
  metrics::Counter migrations_out;
  metrics::Counter local_hits;
  metrics::Counter frames_created;
  metrics::Counter params_applied;
  metrics::Counter remote_fetches;      // fetches that left the site
  // mutable: counted inside the const directory_owner() lookup.
  mutable metrics::Counter directory_lookups;

  // Sharded-directory instruments ("dir." prefix in the registry).
  metrics::Counter shard_handoffs;       // shards this site transferred away
  metrics::Counter lease_renewals;       // per-tick renewals of held leases
  metrics::Counter stale_epoch_rejects;  // routed requests rejected as stale

 private:
  void frame_became_executable(Microframe frame);
  void install_object(MemObject obj);
  /// Keeps an object that arrived unasked and registers it where it belongs.
  void take_custody(MemObject obj);
  void evict_object(GlobalAddress addr);
  void begin_fetch(GlobalAddress addr);
  /// Ends our fetch of `addr`: wakes its parked microthreads, then answers
  /// recalls that arrived before the grant did.
  void settle_fetch(GlobalAddress addr, Status st);
  void answer_recall(const SdMessage& recall, GlobalAddress addr);
  /// Answers the recalls held while a grant to us may be in flight.
  void answer_early_recalls(GlobalAddress addr);
  void grant_next(GlobalAddress addr);

  Site& site_;
  std::uint64_t next_local_id_ = 1;

  std::unordered_map<FrameId, Microframe> frames_;
  std::unordered_map<GlobalAddress, MemObject> objects_;

  // Results that arrived for a frame homed here but not (yet) present.
  // During a graceful sign-off the relocated frame (kDirectoryImport) races
  // its own in-flight results; dropping the result would strand the frame
  // forever. Parked values are applied when the frame is adopted and
  // purged after a generous TTL (post-recovery duplicates are benign).
  struct PendingParam {
    std::uint32_t slot = 0;
    std::vector<std::byte> value;
    Nanos parked_at = 0;
  };
  std::unordered_map<FrameId, std::vector<PendingParam>> pending_params_;
  void park_param(GlobalAddress frame, std::size_t slot,
                  std::vector<std::byte> value);
  void purge_stale_params();

  // Homesite directory for objects created here: current owner site plus
  // the queue of sites waiting for migration (homesite-mediated protocol).
  struct Waiter {
    SiteId requester = kInvalidSite;
    std::uint64_t reply_seq = 0;  // remote requester
  };
  struct DirEntry {
    SiteId owner = kInvalidSite;
    ProgramId program;
    std::deque<Waiter> waiters;
    bool recall_in_flight = false;
  };
  std::unordered_map<GlobalAddress, DirEntry> directory_;

  // Fetches this site is waiting on, keyed by object address, with the
  // microthread accesses parked on each.
  struct PendingAccess {
    std::shared_ptr<WaitCell> cell;
    std::int64_t index = 0;
    std::optional<std::int64_t> store;
  };
  std::unordered_map<GlobalAddress, std::vector<PendingAccess>> fetching_;
  // Recalls for objects whose grant to us may still be in flight.
  std::unordered_map<GlobalAddress, std::vector<SdMessage>> early_recalls_;

  // --- sharded-directory state ---------------------------------------------
  // Routing/stale handling helpers (see attraction_memory.cpp).
  [[nodiscard]] bool site_alive(SiteId id) const;
  void reconcile_targets();
  SiteId route_of(std::uint32_t shard);
  bool merge_lease(std::uint32_t shard, SiteId holder, std::uint64_t epoch);
  void settle_leases(bool announce_held = false);
  void announce_leases(const std::vector<ShardLeaseAnnounce::Entry>& entries);
  void graceful_handoff(std::uint32_t shard, SiteId target,
                        std::vector<ShardLeaseAnnounce::Entry>* announce);
  std::vector<ShardDirEntry> strip_shard(std::uint32_t shard,
                                         SiteId new_holder,
                                         std::uint64_t epoch);
  void abdicate_to(std::uint32_t shard, SiteId winner, std::uint64_t epoch);
  void take_over_shard(std::uint32_t shard, bool rebuild);
  void begin_rebuild(std::uint32_t shard);
  void complete_rebuild(std::uint32_t shard);
  /// Merges a rebuild contribution if we mediate its shard; returns it.
  std::optional<std::uint32_t> absorb_recover_reply(const SdMessage& msg);
  std::uint64_t next_epoch(std::uint32_t shard) const;
  /// Records e.owner unless the directory already names an owner; a
  /// report by the physical holder itself (e.owner == reporter) wins.
  void merge_entry(const ShardDirEntry& e, SiteId reporter = kInvalidSite);
  void send_register(GlobalAddress addr, ProgramId pid, SiteId owner,
                     SiteId route, std::uint8_t hops);
  /// Routes (owner of addr) to the shard holder, or queues it for the
  /// tick while the route is unknown or about to be ours.
  void register_with_holder(GlobalAddress addr, ProgramId pid, SiteId owner);
  void reject_stale(const SdMessage& msg, std::uint32_t shard);
  void park_remote(const SdMessage& msg, std::uint32_t shard, Nanos parked_at);
  void park_local_fetch(GlobalAddress addr);
  void drain_parked(std::uint32_t shard);
  void purge_parked();
  void retry_fetch(GlobalAddress addr, const std::string& why);
  void flush_pending_registers();
  void process_object_request(const SdMessage& msg, Nanos parked_at);
  void process_register(const SdMessage& msg, Nanos parked_at);

  // Per-shard ownership leases as this site believes them, plus the highest
  // epoch ever seen (monotonicity floor for takeovers and cold restarts).
  std::array<ShardLease, kNumShards> leases_{};
  std::array<std::uint64_t, kNumShards> max_epoch_seen_{};

  // Cached rendezvous targets, recomputed lazily when membership changes
  // (the dirty flag keeps a 1000-site cluster build from going O(n^3)).
  std::array<SiteId, kNumShards> targets_{};
  bool shard_view_dirty_ = true;
  // False while our own entry is missing from the live view: a joiner's
  // membership snapshot is still partial, so lease moves must wait.
  bool shard_view_has_self_ = true;
  // Lowest id in the live view; only it may bootstrap-elect fresh shards.
  SiteId shard_view_lowest_ = kInvalidSite;
  Nanos last_shard_tick_ = 0;

  // Crash rebuild: after a takeover the new holder asks every live site to
  // re-register its physical objects; completion when all replied/failed
  // or the failure timeout fires.
  struct ShardRebuild {
    bool active = false;
    Nanos started_at = 0;
    std::uint64_t epoch = 0;
    std::size_t awaiting = 0;
  };
  std::array<ShardRebuild, kNumShards> rebuilds_{};
  Nanos last_rebuild_ns_ = 0;

  // Requests that arrived for a shard whose authority is in flux (handoff
  // or rebuild pending here): parked with their arrival time, reprocessed
  // when authority lands, answered kObjectMiss after the TTL.
  struct ParkedShardMsg {
    SdMessage msg;
    Nanos parked_at = 0;
  };
  std::array<std::deque<ParkedShardMsg>, kNumShards> parked_remote_;
  // Our own fetches waiting for shard authority to settle.
  std::unordered_map<GlobalAddress, Nanos> parked_local_;
  // Bounded kShardStale re-route retries per in-flight fetch.
  std::unordered_map<GlobalAddress, int> fetch_retries_;
  // Directory entries restored from a checkpoint (or allocated) while the
  // shard route was still unknown; flushed each tick.
  std::vector<ShardDirEntry> pending_registers_;
};

}  // namespace sdvm
