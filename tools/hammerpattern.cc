// hammerpattern — frequency-domain pattern fuzzing campaigns.
//
// Drives PatternBuilder seeds across TRR vendor configurations on the
// sweep cell executor and writes a `hammertime.pattern_report.v1`
// ranking flips-per-pattern per vendor. Campaigns are sharded
// (`--shard K/N`), resumable (`--cache-dir`/`--resume`, FNV-keyed cell
// cache), and seed-replayable: the same seed list yields a byte-identical
// report across serial, `--threads N`, resumed, and shard-merged runs.
//
// Examples:
//   hammerpattern --pattern-seeds 1,2,3,4 --out patterns.json
//   hammerpattern --seed-count 32 --base-seed 7 --trr sampler-4,none \
//                 --cache-dir .pat-cache --resume --out campaign.json
//   hammerpattern --shard 1/2 ... --out shard1.json    # on machine A
//   hammerpattern --shard 2/2 ... --out shard2.json    # on machine B
//   hammerpattern --merge shard1.json shard2.json --out merged.json
//
// Replaying one interesting seed from a report:
//   hammerpattern --pattern-seeds 0x2a --trr sampler-4 --out replay.json
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/argparse.h"
#include "common/telemetry/binary.h"
#include "sim/sweep/patterns.h"

using namespace ht;

namespace {

int Fail(const std::string& what) {
  std::fprintf(stderr, "hammerpattern: error: %s (try --help)\n", what.c_str());
  return 2;
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
  const JsonValue merged = MergePatternReports(reports, &error);
  if (merged.type() == JsonValue::Type::kNull) {
    return Fail(error);
  }
  if (!WriteReport(merged, parser.Get("out"))) {
    return Fail("cannot write " + parser.Get("out"));
  }
  std::fprintf(stderr, "hammerpattern: merged %zu reports (%zu cells)\n",
               reports.size(), merged.Find("cells")->size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("hammerpattern",
                   "sharded, resumable frequency-domain pattern fuzzing campaigns");
  parser.Option("pattern-seeds", "LIST",
                "explicit PatternBuilder seeds to run (overrides --seed-count)")
      .Option("seed-count", "N", "fuzz N consecutive seeds starting at --base-seed", "8")
      .Option("base-seed", "S", "first seed when --pattern-seeds is not given", "1")
      .Option("trr", "LIST", "TRR vendor configs: " + KnownTrrVendors(), "")
      .Option("cycles", "N", "per-cell cycle budget", "800000")
      .Option("tenants", "N", "tenant count per cell", "2")
      .Option("pages-per-tenant", "N", "pages allocated per tenant", "512")
      .Option("scenario-seed", "S", "RNG perturbation seed applied to every cell (0 = stock)",
              "0")
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
              "write the pattern report here (default: stdout; binary when FILE ends in .htb)")
      .Flag("merge", "merge shard report files (positionals) instead of running")
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

  PatternCampaignGrid grid;
  grid.pattern_seeds.clear();
  if (!parser.Get("pattern-seeds").empty()) {
    grid.pattern_seeds = parser.GetUints("pattern-seeds");
  } else {
    const uint64_t count = parser.GetUint("seed-count");
    const uint64_t base = parser.GetUint("base-seed");
    for (uint64_t i = 0; i < count; ++i) {
      grid.pattern_seeds.push_back(base + i);
    }
  }
  if (grid.pattern_seeds.empty()) {
    return Fail("no pattern seeds (give --pattern-seeds or --seed-count > 0)");
  }
  if (!parser.Get("trr").empty()) {
    for (const std::string& name : parser.GetStrings("trr")) {
      const std::optional<TrrVendorConfig> vendor = TrrVendorByName(name);
      if (!vendor.has_value()) {
        return Fail("unknown TRR vendor " + name + " (known: " + KnownTrrVendors() + ")");
      }
      grid.vendors.push_back(*vendor);
    }
  }
  grid.run_cycles = parser.GetUint("cycles");
  grid.tenants = static_cast<uint32_t>(parser.GetUint("tenants"));
  grid.pages_per_tenant = parser.GetUint("pages-per-tenant");
  grid.scenario_seed = parser.GetUint("scenario-seed");

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
    for (const SweepCellSpec& cell : ExpandPatternGrid(grid)) {
      std::ostringstream compact;
      SpecCanonicalJson(cell.spec).Dump(compact, /*indent=*/-1);
      std::printf("%s %s\n", cell.key.c_str(), compact.str().c_str());
    }
    return 0;
  }

  const SweepOutcome outcome = RunPatternCampaign(grid, options);
  if (!outcome.ok) {
    return Fail(outcome.error);
  }
  if (!WriteReport(outcome.report, parser.Get("out"))) {
    return Fail("cannot write " + parser.Get("out"));
  }
  std::fprintf(stderr,
               "hammerpattern: grid %llu cells, shard %u/%u -> %llu cells "
               "(%llu cached, %llu executed, %llu deferred)\n",
               static_cast<unsigned long long>(outcome.total_cells), options.shard_index,
               options.shard_count, static_cast<unsigned long long>(outcome.shard_cells),
               static_cast<unsigned long long>(outcome.cached_cells),
               static_cast<unsigned long long>(outcome.executed_cells),
               static_cast<unsigned long long>(outcome.skipped_cells));
  if (options.resume && !options.cache_dir.empty()) {
    std::fprintf(stderr, "hammerpattern: cache %llu hits / %llu misses under %s\n",
                 static_cast<unsigned long long>(outcome.cached_cells),
                 static_cast<unsigned long long>(outcome.cache_misses),
                 options.cache_dir.c_str());
  }
  std::fprintf(stderr,
               "hammerpattern: shard wall %.2fs (cache %.2fs, execute %.2fs, report %.2fs)\n",
               outcome.wall_seconds, outcome.cache_seconds, outcome.execute_seconds,
               outcome.report_seconds);
  return 0;
}
