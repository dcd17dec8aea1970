#include "fault/fault_plan.h"

#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"

namespace db::fault {
namespace {

/// Regions whose name carries the given prefix ("weights:" / "blob:").
std::vector<const MemoryRegion*> RegionsWithPrefix(
    const MemoryMap& map, std::string_view prefix) {
  std::vector<const MemoryRegion*> out;
  for (const MemoryRegion& region : map.regions())
    if (StartsWith(region.name, prefix) && region.bytes > 0)
      out.push_back(&region);
  return out;
}

/// One uniformly random byte address inside one of `regions`, weighted
/// by region size so every byte is equally likely.
std::int64_t RandomAddr(Rng& rng,
                        const std::vector<const MemoryRegion*>& regions,
                        std::int64_t total_bytes) {
  std::int64_t offset =
      static_cast<std::int64_t>(rng.UniformInt(
          static_cast<std::uint64_t>(total_bytes)));
  for (const MemoryRegion* region : regions) {
    if (offset < region->bytes) return region->base + offset;
    offset -= region->bytes;
  }
  DB_CHECK_MSG(false, "region weights do not cover total_bytes");
  return 0;
}

std::int64_t TotalBytes(const std::vector<const MemoryRegion*>& regions) {
  std::int64_t total = 0;
  for (const MemoryRegion* region : regions) total += region->bytes;
  return total;
}

/// Per-key bounds of a campaign spec: event counts stay small enough to
/// materialise, cycle lengths far from int64 overflow once added to a
/// cycle count.
constexpr std::int64_t kMaxEvents = 1'000'000;
constexpr std::int64_t kMaxCycles = 1'000'000'000'000;

}  // namespace

FaultCampaignSpec ParseFaultCampaign(const std::string& spec) {
  FaultCampaignSpec campaign;
  for (const std::string& field : Split(spec, ',')) {
    const std::string_view trimmed = Trim(field);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos)
      throw Error("fault spec: expected key=value, got '" +
                  std::string(trimmed) + "'");
    const std::string key = std::string(Trim(trimmed.substr(0, eq)));
    const std::string value = std::string(Trim(trimmed.substr(eq + 1)));
    const auto parse = [&](std::int64_t min, std::int64_t max) {
      return ParseInt(value, min, max, "fault spec '" + key + "'");
    };
    const auto count = [&] {
      return static_cast<int>(parse(0, kMaxEvents));
    };
    if (key == "seed") {
      campaign.seed = static_cast<std::uint64_t>(
          parse(0, std::numeric_limits<std::int64_t>::max()));
    } else if (key == "flips") {
      campaign.weight_flips = count();
    } else if (key == "blob-flips") {
      campaign.blob_flips = count();
    } else if (key == "transients") {
      campaign.transients = count();
    } else if (key == "stalls") {
      campaign.stalls = count();
    } else if (key == "stall-cycles") {
      campaign.stall_cycles = parse(1, kMaxCycles);
    } else if (key == "crashes") {
      campaign.crashes = count();
    } else if (key == "hangs") {
      campaign.hangs = count();
    } else if (key == "slow-replicas") {
      campaign.slow_replicas = count();
    } else if (key == "route-fails") {
      campaign.route_fails = count();
    } else if (key == "crash-down-cycles") {
      campaign.crash_down_cycles = parse(1, kMaxCycles);
    } else if (key == "hang-cycles") {
      campaign.hang_cycles = parse(1, kMaxCycles);
    } else if (key == "slow-factor") {
      campaign.slow_factor = parse(2, 1024);
    } else if (key == "slow-services") {
      campaign.slow_services = parse(1, kMaxCycles);
    } else if (key == "span") {
      campaign.invocation_span = parse(1, kMaxCycles);
    } else if (key == "workers" || key == "replicas") {
      // "replicas" is the cluster-era spelling; both size the slices the
      // plan is dealt into (callers usually overwrite this with the
      // server's actual pool size).
      campaign.workers =
          static_cast<int>(parse(1, std::numeric_limits<int>::max()));
    } else {
      throw Error("fault spec: unknown key '" + key +
                  "' (seed, flips, blob-flips, transients, stalls, "
                  "stall-cycles, crashes, hangs, slow-replicas, "
                  "route-fails, crash-down-cycles, hang-cycles, "
                  "slow-factor, slow-services, span, workers, replicas)");
    }
  }
  return campaign;
}

FaultPlan FaultPlan::Generate(const FaultCampaignSpec& spec,
                              const MemoryMap& map) {
  DB_CHECK_MSG(spec.workers >= 1, "campaign needs at least one worker");
  DB_CHECK_MSG(spec.invocation_span >= 1,
               "campaign needs a positive invocation span");
  FaultPlan plan;
  plan.seed = spec.seed;
  Rng rng(spec.seed);

  auto coordinate = [&](FaultEvent& event) {
    event.worker = static_cast<int>(
        rng.UniformInt(static_cast<std::uint64_t>(spec.workers)));
    event.invocation = static_cast<std::int64_t>(rng.UniformInt(
        static_cast<std::uint64_t>(spec.invocation_span)));
  };

  const auto weight_regions = RegionsWithPrefix(map, "weights:");
  const auto blob_regions = RegionsWithPrefix(map, "blob:");
  const std::int64_t weight_bytes = TotalBytes(weight_regions);
  const std::int64_t blob_bytes = TotalBytes(blob_regions);
  if (spec.weight_flips > 0)
    DB_CHECK_MSG(weight_bytes > 0, "campaign flips need weight regions");
  if (spec.blob_flips > 0)
    DB_CHECK_MSG(blob_bytes > 0, "campaign blob flips need blob regions");

  for (int i = 0; i < spec.weight_flips + spec.blob_flips; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kBitFlip;
    event.weight_region = i < spec.weight_flips;
    coordinate(event);
    event.addr = event.weight_region
                     ? RandomAddr(rng, weight_regions, weight_bytes)
                     : RandomAddr(rng, blob_regions, blob_bytes);
    event.bit = static_cast<int>(rng.UniformInt(8));
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.transients; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kTransient;
    coordinate(event);
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.stalls; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kStall;
    coordinate(event);
    event.stall_cycles = spec.stall_cycles;
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.crashes; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kCrash;
    coordinate(event);
    event.down_cycles = spec.crash_down_cycles;
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.hangs; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kHang;
    coordinate(event);
    event.stall_cycles = spec.hang_cycles;
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.slow_replicas; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kSlow;
    coordinate(event);
    event.slow_factor = spec.slow_factor;
    event.slow_services = spec.slow_services;
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.route_fails; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kRouteFail;
    coordinate(event);
    plan.events.push_back(event);
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "fault plan (seed " << seed << ", " << events.size()
     << " events)\n";
  for (const FaultEvent& event : events) {
    os << StrFormat("  w%d inv%lld %-9s", event.worker,
                    static_cast<long long>(event.invocation),
                    FaultKindName(event.kind));
    switch (event.kind) {
      case FaultKind::kBitFlip:
        os << StrFormat(" addr=%lld bit=%d %s",
                        static_cast<long long>(event.addr), event.bit,
                        event.weight_region ? "weights" : "blob");
        break;
      case FaultKind::kTransient:
        break;
      case FaultKind::kStall:
      case FaultKind::kHang:
        os << StrFormat(" cycles=%lld",
                        static_cast<long long>(event.stall_cycles));
        break;
      case FaultKind::kCrash:
        os << StrFormat(" down=%lld",
                        static_cast<long long>(event.down_cycles));
        break;
      case FaultKind::kSlow:
        os << StrFormat(" factor=%lld services=%lld",
                        static_cast<long long>(event.slow_factor),
                        static_cast<long long>(event.slow_services));
        break;
      case FaultKind::kRouteFail:
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace db::fault
