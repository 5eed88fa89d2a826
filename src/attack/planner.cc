#include "attack/planner.h"

#include <algorithm>
#include <map>

namespace ht {
namespace {

struct BankKey {
  uint32_t channel;
  uint32_t rank;
  uint32_t bank;
  auto operator<=>(const BankKey&) const = default;
};

// One representative line VA per (bank, row) owned by the domain.
std::map<BankKey, std::map<uint32_t, VirtAddr>> GroupRows(HostKernel& kernel, DomainId domain) {
  std::map<BankKey, std::map<uint32_t, VirtAddr>> groups;
  const AddressMapper& mapper = kernel.mc().mapper();
  DdrCoord coords[kLinesPerPage];
  for (const auto& [va_page, frame] : kernel.space(domain).pages()) {
    mapper.MapPage(frame, coords);
    for (uint64_t l = 0; l < kLinesPerPage; ++l) {
      const DdrCoord& coord = coords[l];
      const BankKey key{coord.channel, coord.rank, coord.bank};
      groups[key].try_emplace(coord.row, va_page * kPageBytes + l * kLineBytes);
    }
  }
  return groups;
}

}  // namespace

std::optional<HammerPlan> PlanManySided(HostKernel& kernel, DomainId attacker, uint32_t sides,
                                        uint32_t spacing, std::optional<BankTriple> avoid) {
  auto groups = GroupRows(kernel, attacker);
  const BankKey* best_key = nullptr;
  const std::map<uint32_t, VirtAddr>* best_rows = nullptr;
  for (const auto& [key, rows] : groups) {
    if (avoid.has_value() && key.channel == avoid->channel && key.rank == avoid->rank &&
        key.bank == avoid->bank) {
      continue;
    }
    if (best_rows == nullptr || rows.size() > best_rows->size()) {
      best_key = &key;
      best_rows = &rows;
    }
  }
  if (best_rows == nullptr || best_rows->size() < sides) {
    return std::nullopt;
  }

  HammerPlan plan;
  plan.channel = best_key->channel;
  plan.rank = best_key->rank;
  plan.bank = best_key->bank;

  // Prefer rows spaced exactly `spacing` apart (victims in the gaps).
  std::vector<std::pair<uint32_t, VirtAddr>> rows(best_rows->begin(), best_rows->end());
  uint32_t last_row = 0;
  bool have_last = false;
  for (const auto& [row, va] : rows) {
    if (plan.aggressor_rows.size() >= sides) {
      break;
    }
    if (!have_last || row >= last_row + spacing) {
      plan.aggressor_rows.push_back(row);
      plan.aggressor_vas.push_back(va);
      last_row = row;
      have_last = true;
    }
  }
  // Relax spacing if the region was too fragmented.
  if (plan.aggressor_rows.size() < sides) {
    plan.aggressor_rows.clear();
    plan.aggressor_vas.clear();
    for (const auto& [row, va] : rows) {
      if (plan.aggressor_rows.size() >= sides) {
        break;
      }
      plan.aggressor_rows.push_back(row);
      plan.aggressor_vas.push_back(va);
    }
  }
  if (plan.aggressor_rows.size() < sides) {
    return std::nullopt;
  }
  for (VirtAddr va : plan.aggressor_vas) {
    plan.aggressor_addrs.push_back(*kernel.Translate(attacker, va));
  }
  return plan;
}

std::optional<HammerPlan> PlanDoubleSidedCross(HostKernel& kernel, DomainId attacker,
                                               DomainId victim) {
  auto groups = GroupRows(kernel, attacker);
  for (const auto& [key, rows] : groups) {
    for (const auto& [row, va] : rows) {
      auto above = rows.find(row + 2);
      if (above == rows.end()) {
        continue;
      }
      // Middle row must hold victim data.
      const auto owners = kernel.RowOwners(key.channel, key.rank, key.bank, row + 1);
      if (std::find(owners.begin(), owners.end(), victim) == owners.end()) {
        continue;
      }
      HammerPlan plan;
      plan.channel = key.channel;
      plan.rank = key.rank;
      plan.bank = key.bank;
      plan.aggressor_rows = {row, row + 2};
      plan.aggressor_vas = {va, above->second};
      for (VirtAddr aggressor_va : plan.aggressor_vas) {
        plan.aggressor_addrs.push_back(*kernel.Translate(attacker, aggressor_va));
      }
      return plan;
    }
  }
  return std::nullopt;
}

std::optional<HammerPlan> PlanHalfDoubleCross(HostKernel& kernel, DomainId attacker,
                                              DomainId victim) {
  auto groups = GroupRows(kernel, attacker);
  const DramOrg& org = kernel.mc().mapper().org();
  for (const auto& [key, rows] : groups) {
    for (const auto& [row, va] : rows) {
      auto above = rows.find(row + 4);
      if (above == rows.end()) {
        continue;
      }
      const uint32_t victim_row = row + 2;
      // Whole pattern must sit in one subarray or the coupling is cut.
      if (org.SubarrayOfRow(row) != org.SubarrayOfRow(row + 4)) {
        continue;
      }
      const auto owners = kernel.RowOwners(key.channel, key.rank, key.bank, victim_row);
      if (std::find(owners.begin(), owners.end(), victim) == owners.end()) {
        continue;
      }
      HammerPlan plan;
      plan.channel = key.channel;
      plan.rank = key.rank;
      plan.bank = key.bank;
      plan.aggressor_rows = {row, row + 4};
      plan.aggressor_vas = {va, above->second};
      for (VirtAddr aggressor_va : plan.aggressor_vas) {
        plan.aggressor_addrs.push_back(*kernel.Translate(attacker, aggressor_va));
      }
      return plan;
    }
  }
  return std::nullopt;
}

std::vector<uint32_t> VictimRowsOf(const HammerPlan& plan, uint32_t blast,
                                   uint32_t rows_per_bank) {
  std::vector<uint32_t> victims;
  for (uint32_t aggressor : plan.aggressor_rows) {
    for (uint32_t d = 1; d <= blast; ++d) {
      if (aggressor >= d) {
        victims.push_back(aggressor - d);
      }
      if (aggressor + d < rows_per_bank) {
        victims.push_back(aggressor + d);
      }
    }
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  // Aggressors repair themselves; drop rows that are also aggressors.
  std::erase_if(victims, [&plan](uint32_t row) {
    return std::find(plan.aggressor_rows.begin(), plan.aggressor_rows.end(), row) !=
           plan.aggressor_rows.end();
  });
  return victims;
}

bool HasCrossDomainAdjacency(HostKernel& kernel, DomainId attacker, uint32_t blast) {
  const DramOrg& org = kernel.mc().mapper().org();
  auto groups = GroupRows(kernel, attacker);
  for (const auto& [key, rows] : groups) {
    for (const auto& [row, va] : rows) {
      (void)va;
      const uint32_t subarray = org.SubarrayOfRow(row);
      for (uint32_t d = 1; d <= blast; ++d) {
        for (int sign = -1; sign <= 1; sign += 2) {
          const int64_t neighbor = static_cast<int64_t>(row) + sign * static_cast<int64_t>(d);
          if (neighbor < 0 || neighbor >= static_cast<int64_t>(org.rows_per_bank())) {
            continue;
          }
          // Disturbance cannot cross a subarray boundary; adjacency across
          // one is not an exposure.
          if (org.SubarrayOfRow(static_cast<uint32_t>(neighbor)) != subarray) {
            continue;
          }
          for (DomainId owner : kernel.RowOwners(key.channel, key.rank, key.bank,
                                                 static_cast<uint32_t>(neighbor))) {
            if (owner != attacker) {
              return true;
            }
          }
        }
      }
    }
  }
  return false;
}

}  // namespace ht
