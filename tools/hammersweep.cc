// hammersweep — sharded, resumable parameter sweeps over the scenario API.
//
// Expands a declarative grid (comma-separated axis lists) into
// deduplicated scenario cells, runs this shard's missing cells on the
// worker pool, and writes a `hammertime.sweep_report.v1` document. With
// `--cache-dir` every completed cell is persisted; `--resume` makes a
// re-run execute only the cells the cache does not already hold, and the
// resumed report is byte-identical to an uninterrupted run.
//
// Examples:
//   hammersweep --attacks=double-sided,many-sided --defenses=none,para \
//               --out sweep.json
//   hammersweep --generations=0,1,2,3,4 --defenses=none,sw-refresh \
//               --cache-dir .sweep-cache --resume --out density.json
//   hammersweep --shard 1/2 ... --out shard1.json       # on machine A
//   hammersweep --shard 2/2 ... --out shard2.json       # on machine B
//   hammersweep --merge shard1.json shard2.json --out merged.json
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/argparse.h"
#include "common/telemetry/binary.h"
#include "sim/sweep/sweep.h"

using namespace ht;

namespace {

int Fail(const std::string& what) {
  std::fprintf(stderr, "hammersweep: error: %s (try --help)\n", what.c_str());
  return 2;
}

// Decodes one comma-separated axis through a registry FromString; exits
// via the returned nullopt (the caller Fails with the known-name list).
template <typename Kind, typename FromString>
std::optional<std::vector<Kind>> ParseAxis(const ArgParser& parser, std::string_view flag,
                                           FromString from_string, std::string* bad) {
  std::vector<Kind> out;
  for (const std::string& name : parser.GetStrings(flag)) {
    const std::optional<Kind> kind = from_string(name);
    if (!kind.has_value()) {
      *bad = name;
      return std::nullopt;
    }
    out.push_back(*kind);
  }
  return out;
}

bool WriteReport(const JsonValue& report, const std::string& out_path) {
  if (out_path.empty()) {
    std::ostringstream text;
    report.Dump(text);
    text << "\n";
    std::fputs(text.str().c_str(), stdout);
    return true;
  }
  const std::filesystem::path parent = std::filesystem::path(out_path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  // Extension-dispatched: `--out report.htb` writes hammertime.bin.v1.
  return WriteTelemetryDocument(out_path, report);
}

int Merge(const ArgParser& parser) {
  if (parser.positionals().empty()) {
    return Fail("--merge needs report files as positional arguments");
  }
  std::vector<JsonValue> reports;
  for (const std::string& path : parser.positionals()) {
    // Shard inputs may be JSON or .htb; the reader sniffs content.
    std::string error;
    std::optional<JsonValue> doc = ReadTelemetryDocument(path, &error);
    if (!doc.has_value()) {
      return Fail(error);
    }
    reports.push_back(std::move(*doc));
  }
  std::string error;
  const JsonValue merged = MergeSweepReports(reports, &error);
  if (merged.type() == JsonValue::Type::kNull) {
    return Fail(error);
  }
  if (!WriteReport(merged, parser.Get("out"))) {
    return Fail("cannot write " + parser.Get("out"));
  }
  std::fprintf(stderr, "hammersweep: merged %zu reports (%zu cells)\n",
               reports.size(), merged.Find("cells")->size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("hammersweep", "sharded, resumable scenario parameter sweeps");
  parser.Option("defenses", "LIST", KnownDefenseKinds(), "none")
      .Option("hw", "LIST", KnownHwMitigationKinds(), "none")
      .Option("attacks", "LIST", KnownAttackKinds(), "double-sided")
      .Option("thresholds", "LIST", "ACT-interrupt thresholds", "256")
      .Option("trr-entries", "LIST", "TRR tracker entries (0 = TRR off)", "0")
      .Option("blast-radii", "LIST", "blast radii (0 = profile default)", "0")
      .Option("generations", "LIST", "density generations 0..4 (-1 = sim default)", "-1")
      .Option("cycles", "LIST", "per-cell cycle budgets", "800000")
      .Option("seeds", "LIST", "RNG perturbation seeds (0 = stock seeds)", "0")
      .Option("sides", "N", "aggressor rows for many-sided", "16")
      .Option("tenants", "N", "tenant count per cell", "2")
      .Option("pages-per-tenant", "N", "pages allocated per tenant", "512")
      .Flag("benign", "victim tenant runs a random co-running workload")
      .Option("cache-dir", "DIR", "persist/reuse per-cell results here")
      .Flag("resume", "reuse valid cached cells instead of re-running them")
      .Flag("binary-cache",
            "store cache cells as hammertime.bin.v1 (.htb); either format is "
            "readable on resume")
      .Option("shard", "K/N", "run only this shard of the cell list", "1/1")
      .Option("max-cells", "N", "stop after N executed cells (0 = all)", "0")
      .Option("progress-every", "SECONDS",
              "print heartbeat progress lines to stderr while cells execute", "0")
      .Option("out", "FILE",
              "write the sweep report here (default: stdout; binary when FILE ends in .htb)")
      .Flag("merge", "merge shard report files (positionals) instead of sweeping")
      .Flag("list", "print the expanded cell list without running anything");
  AddThreadsFlag(parser);
  parser.AllowPositionals("report files for --merge");
  if (!parser.Parse(argc, argv)) {
    return Fail(parser.error());
  }
  if (parser.help_requested()) {
    std::fputs(parser.Usage().c_str(), stdout);
    return 0;
  }
  if (parser.GetBool("merge")) {
    return Merge(parser);
  }
  if (!parser.positionals().empty()) {
    return Fail("positional arguments are only accepted with --merge");
  }

  SweepGrid grid;
  std::string bad;
  if (auto axis = ParseAxis<DefenseKind>(parser, "defenses", DefenseKindFromString, &bad)) {
    grid.defenses = std::move(*axis);
  } else {
    return Fail("unknown defense " + bad + " (known: " + KnownDefenseKinds() + ")");
  }
  if (auto axis = ParseAxis<HwMitigationKind>(parser, "hw", HwMitigationKindFromString, &bad)) {
    grid.hw = std::move(*axis);
  } else {
    return Fail("unknown hw mitigation " + bad + " (known: " + KnownHwMitigationKinds() + ")");
  }
  if (auto axis = ParseAxis<AttackKind>(parser, "attacks", AttackKindFromString, &bad)) {
    grid.attacks = std::move(*axis);
  } else {
    return Fail("unknown attack " + bad + " (known: " + KnownAttackKinds() + ")");
  }
  grid.act_thresholds = parser.GetUints("thresholds");
  std::vector<uint32_t> trr_entries;
  for (const uint64_t value : parser.GetUints("trr-entries")) {
    trr_entries.push_back(static_cast<uint32_t>(value));
  }
  grid.trr_entries = std::move(trr_entries);
  std::vector<uint32_t> blast_radii;
  for (const uint64_t value : parser.GetUints("blast-radii")) {
    blast_radii.push_back(static_cast<uint32_t>(value));
  }
  grid.blast_radii = std::move(blast_radii);
  std::vector<int> generations;
  for (const int64_t value : parser.GetInts("generations")) {
    generations.push_back(static_cast<int>(value));
  }
  grid.generations = std::move(generations);
  grid.cycle_budgets = parser.GetUints("cycles");
  grid.seeds = parser.GetUints("seeds");
  grid.sides = static_cast<uint32_t>(parser.GetUint("sides"));
  grid.tenants = static_cast<uint32_t>(parser.GetUint("tenants"));
  grid.pages_per_tenant = parser.GetUint("pages-per-tenant");
  grid.benign_corunner = parser.GetBool("benign");

  SweepOptions options;
  options.threads = ThreadsFlag(parser);
  options.cache_dir = parser.Get("cache-dir");
  options.resume = parser.GetBool("resume");
  options.binary_cache = parser.GetBool("binary-cache");
  options.max_cells = parser.GetUint("max-cells");
  options.progress_every = std::strtod(parser.Get("progress-every").c_str(), nullptr);
  if (!ParseShard(parser.Get("shard"), &options.shard_index, &options.shard_count)) {
    return Fail("bad --shard " + parser.Get("shard") + " (want K/N with 1 <= K <= N)");
  }

  if (parser.GetBool("list")) {
    for (const SweepCellSpec& cell : ExpandGrid(grid)) {
      std::ostringstream compact;
      SpecCanonicalJson(cell.spec).Dump(compact, /*indent=*/-1);
      std::printf("%s %s\n", cell.key.c_str(), compact.str().c_str());
    }
    return 0;
  }

  const SweepOutcome outcome = RunSweep(grid, options);
  if (!outcome.ok) {
    return Fail(outcome.error);
  }
  if (!WriteReport(outcome.report, parser.Get("out"))) {
    return Fail("cannot write " + parser.Get("out"));
  }
  std::fprintf(stderr,
               "hammersweep: grid %llu cells, shard %u/%u -> %llu cells "
               "(%llu cached, %llu executed, %llu deferred)\n",
               static_cast<unsigned long long>(outcome.total_cells), options.shard_index,
               options.shard_count, static_cast<unsigned long long>(outcome.shard_cells),
               static_cast<unsigned long long>(outcome.cached_cells),
               static_cast<unsigned long long>(outcome.executed_cells),
               static_cast<unsigned long long>(outcome.skipped_cells));
  if (options.resume && !options.cache_dir.empty()) {
    std::fprintf(stderr,
                 "hammersweep: cache %llu hits / %llu misses under %s\n",
                 static_cast<unsigned long long>(outcome.cached_cells),
                 static_cast<unsigned long long>(outcome.cache_misses),
                 options.cache_dir.c_str());
  }
  std::fprintf(stderr,
               "hammersweep: shard wall %.2fs (cache %.2fs, execute %.2fs, report %.2fs)\n",
               outcome.wall_seconds, outcome.cache_seconds, outcome.execute_seconds,
               outcome.report_seconds);
  return 0;
}
