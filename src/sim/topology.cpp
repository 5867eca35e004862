#include "sim/topology.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace sdvm::sim {

namespace {

Status check_loss(const std::string& zone, const char* which, double loss) {
  if (!(loss >= 0.0) || loss >= 1.0) {  // !(>=0) also catches NaN
    return Status::error(ErrorCode::kInvalidArgument,
                         "zone '" + zone + "' " + which +
                             " loss must be in [0, 1), got " +
                             std::to_string(loss));
  }
  return Status::ok();
}

}  // namespace

Status validate_zones(const std::vector<ZoneSpec>& zones) {
  if (zones.empty()) {
    return Status::error(ErrorCode::kInvalidArgument, "topology has no zones");
  }
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < zones.size(); ++i) {
    const ZoneSpec& z = zones[i];
    if (z.name.empty()) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "zone " + std::to_string(i) + " has an empty name");
    }
    if (!index.emplace(z.name, i).second) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "duplicate zone name '" + z.name + "'");
    }
  }
  int total_sites = 0;
  for (const ZoneSpec& z : zones) {
    if (!z.parent.empty() && !index.contains(z.parent)) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "zone '" + z.name + "' has unknown parent '" +
                               z.parent + "'");
    }
    if (z.parent == z.name) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "zone '" + z.name + "' is its own parent");
    }
    if (z.sites < 0) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "zone '" + z.name + "' has negative site count");
    }
    total_sites += z.sites;
    if (!(z.speed > 0.0) || !std::isfinite(z.speed)) {  // rejects NaN too
      return Status::error(ErrorCode::kInvalidArgument,
                           "zone '" + z.name +
                               "' speed factor must be positive, got " +
                               std::to_string(z.speed));
    }
    if (Status s = check_loss(z.name, "local", z.local.loss); !s.is_ok()) {
      return s;
    }
    if (Status s = check_loss(z.name, "uplink", z.up.loss); !s.is_ok()) {
      return s;
    }
  }
  if (total_sites == 0) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "topology hosts zero sites");
  }
  // Cycle check: every parent chain must reach a root within |zones| hops.
  for (const ZoneSpec& z : zones) {
    std::size_t hops = 0;
    const ZoneSpec* cur = &z;
    while (!cur->parent.empty()) {
      if (++hops > zones.size()) {
        return Status::error(ErrorCode::kInvalidArgument,
                             "cyclic zone route through '" + z.name + "'");
      }
      cur = &zones[index.at(cur->parent)];
    }
  }
  return Status::ok();
}

int ZoneTable::zone_of_site(int site_index) const {
  for (std::size_t i = 0; i < zones.size(); ++i) {
    if (site_index < zones[i].first_site + zones[i].sites) {
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(zones.size()) - 1;
}

Result<ZoneTable> build_zone_table(const std::vector<ZoneSpec>& zones) {
  if (Status s = validate_zones(zones); !s.is_ok()) return s;

  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < zones.size(); ++i) index[zones[i].name] = i;

  // Path from a zone to the root, as spec indices (self first).
  auto path_to_root = [&](std::size_t zi) {
    std::vector<std::size_t> path;
    for (const ZoneSpec* cur = &zones[zi];; cur = &zones[index.at(cur->parent)]) {
      path.push_back(static_cast<std::size_t>(cur - zones.data()));
      if (cur->parent.empty()) break;
    }
    return path;
  };

  ZoneTable table;
  std::vector<std::size_t> spec_of_host;  // hosting zone -> spec index
  for (std::size_t i = 0; i < zones.size(); ++i) {
    if (zones[i].sites == 0) continue;
    ZoneTable::ZoneInfo info;
    info.name = zones[i].name;
    info.first_site = table.total_sites;
    info.sites = zones[i].sites;
    info.speed = zones[i].speed;
    table.total_sites += zones[i].sites;
    table.zones.push_back(std::move(info));
    spec_of_host.push_back(i);
  }

  const std::size_t n = table.zones.size();
  table.matrix.resize(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<std::size_t> pa = path_to_root(spec_of_host[a]);
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) {
        table.matrix[a * n + b] = zones[spec_of_host[a]].local;
        continue;
      }
      std::vector<std::size_t> pb = path_to_root(spec_of_host[b]);
      // Strip the common tail (shared ancestors); what remains is the
      // uplink chain each side climbs to the LCA.
      while (pa.size() > 1 && pb.size() > 1 && pa.back() == pb.back() &&
             pa[pa.size() - 2] == pb[pb.size() - 2]) {
        pa.pop_back();
        pb.pop_back();
      }
      bool same_root = pa.back() == pb.back();
      net::LinkModel m;
      double pass = 1.0;
      auto climb = [&](const std::vector<std::size_t>& path) {
        // Cross every uplink below the LCA (all but the path's last entry
        // when the sides share it).
        std::size_t stop = same_root ? path.size() - 1 : path.size();
        for (std::size_t i = 0; i < stop; ++i) {
          const net::LinkModel& up = zones[path[i]].up;
          m.latency += up.latency;
          m.per_byte = std::max(m.per_byte, up.per_byte);
          m.jitter += up.jitter;
          pass *= 1.0 - up.loss;
          m.sever = m.sever || up.sever;
        }
      };
      climb(pa);
      climb(pb);
      m.loss = 1.0 - pass;
      table.matrix[a * n + b] = m;
    }
  }
  return table;
}

std::vector<ZoneSpec> make_rack_topology(int racks, int sites_per_rack,
                                         net::LinkModel intra,
                                         net::LinkModel up) {
  std::vector<ZoneSpec> zones;
  ZoneSpec core;
  core.name = "core";
  zones.push_back(core);
  for (int r = 0; r < racks; ++r) {
    ZoneSpec rack;
    rack.name = "rack" + std::to_string(r);
    rack.parent = "core";
    rack.sites = sites_per_rack;
    rack.local = intra;
    rack.up = up;
    zones.push_back(rack);
  }
  return zones;
}

}  // namespace sdvm::sim
