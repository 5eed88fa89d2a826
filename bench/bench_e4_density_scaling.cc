// E4 — The worsening-density argument (§3, after Kim et al. [30]).
//
// Across synthetic DRAM generations (MAC shrinking orders of magnitude,
// blast radius growing), we measure: (a) whether each defense still
// prevents flips, (b) the run-time overhead it pays, and (c) the SRAM the
// hardware baselines need once sized for that generation. The paper's
// claim: HW tracker state and overhead grow as density rises, while the
// CPU-primitive software defenses scale.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "mc/mitigations.h"

namespace ht {
namespace {

// Sizes a Graphene-style tracker for a generation: it must be able to
// track every row that could reach threshold = mac/4 within a refresh
// window given the bank's maximum ACT rate.
uint64_t GrapheneEntriesFor(const DramConfig& dram) {
  const uint64_t max_acts_per_window =
      dram.retention.refresh_window / dram.timing.tRC;
  return std::max<uint64_t>(1, 4 * max_acts_per_window / std::max(1u, dram.disturbance.mac));
}

struct Case {
  DefenseKind defense;
  HwMitigationKind hw;
  bool trr;
  bool subarray;
};

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      {DefenseKind::kNone, HwMitigationKind::kNone, false, false},
      {DefenseKind::kNone, HwMitigationKind::kNone, true, false},
      {DefenseKind::kNone, HwMitigationKind::kPara, false, false},
      {DefenseKind::kNone, HwMitigationKind::kGraphene, false, false},
      {DefenseKind::kNone, HwMitigationKind::kBlockHammer, false, false},
      {DefenseKind::kSwRefresh, HwMitigationKind::kNone, false, false},
      {DefenseKind::kNone, HwMitigationKind::kNone, false, true},
  };
  return cases;
}

ScenarioSpec SpecFor(const DramConfig& dram, const Case& c) {
  ScenarioSpec spec;
  spec.system.dram = dram;
  spec.defense = c.defense;
  spec.hw = c.hw;
  spec.attack = AttackKind::kDoubleSided;
  spec.run_cycles = 1200000;
  // Interrupt threshold scales with MAC: react within mac/4 ACTs.
  spec.act_threshold = std::max<uint64_t>(16, dram.disturbance.mac / 4);
  if (c.trr) {
    spec.system.dram.trr.enabled = true;
    spec.system.dram.trr.table_entries = 4;
  }
  if (c.subarray) {
    spec.system.mc.scheme = InterleaveScheme::kSubarrayIsolated;
    spec.system.alloc = AllocPolicy::kSubarrayAware;
  }
  return spec;
}

void Main(unsigned threads) {
  // The generation × defense grid is 35 independent simulations — build
  // them all and fan out across the worker pool.
  constexpr int kGenerations = 5;
  std::vector<ScenarioSpec> specs;
  specs.reserve(kGenerations * Cases().size());
  for (int generation = 0; generation < kGenerations; ++generation) {
    const DramConfig dram = DramConfig::DensityGeneration(generation);
    for (const Case& c : Cases()) {
      specs.push_back(SpecFor(dram, c));
    }
  }
  const std::vector<ScenarioResult> results = RunScenarios(specs, threads);

  Table security("E4a. Defense outcome across density generations (double-sided, 1.2M cycles): "
                 "cross-domain flip events");
  security.SetHeader({"generation", "MAC(scaled)", "blast", "none", "trr n=4", "para",
                      "graphene", "blockhammer", "sw-refresh", "subarray-iso"});

  Table cost("E4b. Defense cost across generations: extra ACTs (refresh work) / throttled ACTs "
             "/ HW tracker SRAM (bits per device)");
  cost.SetHeader({"generation", "para extra-ACTs", "graphene extra-ACTs", "graphene SRAM",
                  "blockhammer throttled ACTs", "blockhammer SRAM", "sw-refresh extra-ACTs",
                  "sw-refresh SRAM"});

  size_t next = 0;
  for (int generation = 0; generation < kGenerations; ++generation) {
    const DramConfig dram = DramConfig::DensityGeneration(generation);
    std::vector<std::string> security_row = {dram.name,
                                             Table::Num(uint64_t{dram.disturbance.mac}),
                                             Table::Num(uint64_t{dram.disturbance.blast_radius})};
    std::vector<std::string> cost_row = {dram.name};

    uint64_t para_acts = 0;
    uint64_t graphene_acts = 0;
    uint64_t blockhammer_stalls = 0;
    uint64_t swrefresh_acts = 0;

    for (const Case& c : Cases()) {
      const ScenarioResult& result = results[next++];
      security_row.push_back(Table::Num(result.security.cross_domain_flips));
      if (c.hw == HwMitigationKind::kPara) {
        para_acts = result.perf.extra_acts;
      }
      if (c.hw == HwMitigationKind::kGraphene) {
        graphene_acts = result.perf.extra_acts;
      }
      if (c.hw == HwMitigationKind::kBlockHammer) {
        blockhammer_stalls = result.throttle_stalls;
      }
      if (c.defense == DefenseKind::kSwRefresh) {
        swrefresh_acts = result.perf.extra_acts;
      }
    }
    security.AddRow(security_row);

    // SRAM sizing for this generation.
    GrapheneConfig graphene_config;
    graphene_config.table_entries = static_cast<uint32_t>(GrapheneEntriesFor(dram));
    GrapheneMitigation graphene(dram.org, dram.disturbance, graphene_config);
    BlockHammerConfig blockhammer_config;
    // Filter must keep per-row estimates usable as MAC shrinks: scale
    // counters inversely with MAC.
    blockhammer_config.filter_counters =
        std::max<uint32_t>(256, 1024 * 2500 / std::max(1u, dram.disturbance.mac));
    BlockHammerMitigation blockhammer(dram.org, dram.retention, dram.disturbance,
                                      blockhammer_config);

    cost_row.push_back(Table::Num(para_acts));
    cost_row.push_back(Table::Num(graphene_acts));
    cost_row.push_back(Table::Num(graphene.SramBits()));
    cost_row.push_back(Table::Num(blockhammer_stalls));
    cost_row.push_back(Table::Num(blockhammer.SramBits()));
    cost_row.push_back(Table::Num(swrefresh_acts));
    cost_row.push_back("0 (host DRAM only)");
    cost.AddRow(cost_row);
  }
  security.Print();
  cost.Print();
  std::puts(
      "\nReading: as MAC falls ~80x, the HW trackers' SRAM grows in proportion\n"
      "(Graphene entries ~ window/MAC) while the software defenses' state lives\n"
      "in ordinary host memory; subarray isolation is cost-free at every node.");
}

}  // namespace
}  // namespace ht

int main(int argc, char** argv) {
  ht::Main(ht::BenchMain(argc, argv));
  return 0;
}
