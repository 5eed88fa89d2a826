// hammertime — command-line experiment runner.
//
// Assembles a full system (DRAM + MC + caches + tenants) from flags, runs
// an attack/defense scenario, and prints the outcome as a table or CSV.
//
// Examples:
//   hammertime --attack=double-sided                       # undefended
//   hammertime --attack=many-sided --sides=16 --trr=4      # TRRespass
//   hammertime --attack=dma --defense=sw-refresh
//   hammertime --defense=subarray-iso --attack=double-sided
//   hammertime --attack=double-sided --hw=blockhammer --csv
//   hammertime --generation=3 --defense=sw-refresh --cycles=2000000
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/argparse.h"
#include "common/table.h"
#include "common/telemetry/binary.h"
#include "common/telemetry/profile.h"
#include "common/telemetry/report.h"
#include "sim/runner/runner.h"

using namespace ht;

namespace {

struct CliOptions {
  std::string attack = "double-sided";
  std::string defense = "none";
  std::string hw = "none";
  uint32_t sides = 16;
  uint32_t trr = 0;
  int generation = -1;
  uint64_t threshold = 256;
  Cycle cycles = 1200000;
  bool ecc = false;
  bool remap = false;
  bool refsb = false;
  bool closed_page = false;
  bool csv = false;
  bool verbose = false;
  std::string trace_out;    // Chrome trace_event JSON path.
  std::string metrics_out;  // hammertime.metrics.v1 report path.
  Cycle sample_every = 0;
};

// `hint` is off for ArgParser errors, which end in "(try --help)" already.
int Fail(const std::string& what, bool hint = true) {
  std::fprintf(stderr, "error: %s%s\n", what.c_str(), hint ? " (try --help)" : "");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("hammertime", "Rowhammer mitigation experiment runner");
  parser.Option("attack", "KIND", KnownAttackKinds(), "double-sided")
      .Option("defense", "KIND", KnownDefenseKinds() + ", subarray-iso, guard-rows", "none")
      .Option("hw", "KIND", KnownHwMitigationKinds(), "none")
      .Option("sides", "N", "aggressor rows for many-sided", "16")
      .Option("trr", "N", "enable in-DRAM TRR with an N-entry tracker")
      .Option("generation", "G", "density generation 0..4 (default: sim default)")
      .Option("threshold", "N", "ACT-interrupt threshold", "256")
      .Option("cycles", "N", "simulated DRAM cycles", "1200000")
      .Flag("ecc", "enable SECDED ECC")
      .Flag("refsb", "DDR5-style per-bank refresh")
      .Flag("closed-page", "closed-page (auto-precharge) row policy")
      .Flag("remap", "enable vendor row remapping")
      .Flag("csv", "emit CSV instead of a table")
      .Flag("verbose", "dump raw MC/DRAM statistics afterwards");
  AddRunnerFlags(parser);
  if (!parser.Parse(argc, argv)) {
    return Fail(parser.error(), /*hint=*/false);
  }
  if (parser.help_requested()) {
    std::fputs(parser.Usage().c_str(), stdout);
    return 0;
  }

  CliOptions options;
  options.attack = parser.Get("attack");
  options.defense = parser.Get("defense");
  options.hw = parser.Get("hw");
  options.sides = parser.GetNumber<uint32_t>("sides");
  options.trr = parser.GetNumber<uint32_t>("trr");
  options.generation = parser.Has("generation") ? parser.GetNumber<int>("generation") : -1;
  options.threshold = parser.GetUint("threshold");
  options.cycles = parser.GetUint("cycles");
  options.ecc = parser.GetBool("ecc");
  options.remap = parser.GetBool("remap");
  options.refsb = parser.GetBool("refsb");
  options.closed_page = parser.GetBool("closed-page");
  options.csv = parser.GetBool("csv");
  options.verbose = parser.GetBool("verbose");
  options.trace_out = parser.Get("trace-out");
  options.metrics_out = parser.Get("metrics-out");
  options.sample_every = parser.GetUint("sample-every");
  if (parser.GetBool("profile")) {
    Profiler::Global().Enable();
  } else if (const char* env = std::getenv("HT_PROFILE");
             env != nullptr && *env != '\0' && std::string(env) != "0") {
    Profiler::Global().Enable();
  }

  ScenarioSpec spec;
  spec.run_cycles = options.cycles;
  spec.sides = options.sides;
  spec.act_threshold = options.threshold;

  if (options.generation >= 0) {
    spec.system.dram = DramConfig::DensityGeneration(options.generation);
  }
  if (options.trr > 0) {
    spec.system.dram.trr.enabled = true;
    spec.system.dram.trr.table_entries = options.trr;
  }
  spec.system.dram.ecc.enabled = options.ecc;
  spec.system.dram.remap.enabled = options.remap;
  spec.system.dram.retention.per_bank_refresh = options.refsb;
  spec.system.mc.open_page = !options.closed_page;

  if (const auto attack = AttackKindFromString(options.attack); attack.has_value()) {
    spec.attack = *attack;
  } else {
    return Fail("unknown attack " + options.attack + " (known: " + KnownAttackKinds() + ")");
  }

  // The two isolation configurations are system-shape choices rather than
  // installable Defense objects, so they sit outside the registry.
  if (options.defense == "subarray-iso") {
    spec.system.mc.scheme = InterleaveScheme::kSubarrayIsolated;
    spec.system.alloc = AllocPolicy::kSubarrayAware;
    spec.system.mc.enforce_domain_groups = true;
  } else if (options.defense == "guard-rows") {
    spec.system.alloc = AllocPolicy::kGuardRows;
    spec.system.guard_domains = 2;
    spec.system.guard_blast = spec.system.dram.disturbance.blast_radius;
  } else if (const auto defense = DefenseKindFromString(options.defense); defense.has_value()) {
    spec.defense = *defense;
  } else {
    return Fail("unknown defense " + options.defense + " (known: " + KnownDefenseKinds() +
                ", subarray-iso, guard-rows)");
  }

  if (const auto hw = HwMitigationKindFromString(options.hw); hw.has_value()) {
    spec.hw = *hw;
  } else {
    return Fail("unknown hw mitigation " + options.hw + " (known: " + KnownHwMitigationKinds() +
                ")");
  }

  if (!options.metrics_out.empty() && options.sample_every == 0) {
    options.sample_every = kDefaultSampleEvery;
  }
  const bool telemetry_on = !options.trace_out.empty() || !options.metrics_out.empty();
  TraceSink sink;
  ScenarioTelemetry telemetry;
  telemetry.label = options.attack + "-vs-" + options.defense;
  telemetry.sample_every = options.sample_every;
  if (!options.trace_out.empty()) {
    telemetry.trace = sink.CreateBuffer(telemetry.label);
  }

  const ScenarioResult result = RunScenario(spec, telemetry_on ? &telemetry : nullptr);

  if (!options.trace_out.empty()) {
    // Extension-dispatched: `.htb` writes hammertime.bin.v1, anything
    // else the Chrome trace_event JSON.
    std::string error;
    if (!WriteTraceOutput(options.trace_out, sink, &error)) {
      return Fail(error);
    }
  }
  if (!options.metrics_out.empty()) {
    std::vector<JsonValue> reports;
    reports.push_back(std::move(telemetry.report));
    JsonValue doc = MakeMetricsDocument(std::move(reports));
    Profiler::Global().MaybeAttachTo(doc);
    std::string error;
    if (!WriteTelemetryDocument(options.metrics_out, doc, &error)) {
      return Fail(error);
    }
  }

  Table table("hammertime: " + options.attack + " vs " + options.defense +
              (options.hw != "none" ? "+" + options.hw : ""));
  table.SetHeader({"metric", "value"});
  table.AddRow({"attack planned", result.attack_planned ? "yes" : "no (isolation denied it)"});
  table.AddRow({"flip events", Table::Num(result.security.flip_events)});
  table.AddRow({"cross-domain flips", Table::Num(result.security.cross_domain_flips)});
  table.AddRow({"intra-domain flips", Table::Num(result.security.intra_domain_flips)});
  table.AddRow({"corrupted lines", Table::Num(result.security.corrupted_lines)});
  table.AddRow({"defense interrupts/detections", Table::Num(result.defense_interrupts)});
  table.AddRow({"page migrations", Table::Num(result.page_moves)});
  table.AddRow({"throttled ACTs", Table::Num(result.throttle_stalls)});
  table.AddRow({"row-hit rate", Table::Percent(result.perf.row_hit_rate)});
  table.AddRow({"avg read latency (cyc)", Table::Fixed(result.perf.avg_read_latency, 1)});
  table.AddRow({"ops/kcycle", Table::Fixed(result.perf.ops_per_kcycle, 1)});
  if (options.csv) {
    std::fputs(table.ToCsv().c_str(), stdout);
  } else {
    table.Print();
  }
  if (options.verbose) {
    // Raw counters for scripting/debugging. RunScenario destroyed the
    // System, so re-run a short verbose pass is not possible; instead
    // verbose mode prints the derived result object fields exhaustively.
    std::printf("\nraw: flips=%llu cross=%llu intra=%llu corrupted=%llu dos=%llu "
                "interrupts=%llu moves=%llu stalls=%llu mitigation_refreshes=%llu "
                "extra_acts=%llu ops=%llu\n",
                static_cast<unsigned long long>(result.security.flip_events),
                static_cast<unsigned long long>(result.security.cross_domain_flips),
                static_cast<unsigned long long>(result.security.intra_domain_flips),
                static_cast<unsigned long long>(result.security.corrupted_lines),
                static_cast<unsigned long long>(result.security.dos_lockups),
                static_cast<unsigned long long>(result.defense_interrupts),
                static_cast<unsigned long long>(result.page_moves),
                static_cast<unsigned long long>(result.throttle_stalls),
                static_cast<unsigned long long>(result.mitigation_refreshes),
                static_cast<unsigned long long>(result.perf.extra_acts),
                static_cast<unsigned long long>(result.perf.ops));
  }
  return 0;
}
