// hammercloud — multi-tenant cloud host isolation campaigns.
//
// Benchmarks defense families (isolation-, frequency-, and
// refresh-centric, plus the undefended baseline) against cross-tenant
// attacks inside a churning tenant population on the sweep cell executor
// and writes a `hammertime.cloud_report.v1` ranking families on flips
// escaped per tenant and p99 read latency. Campaigns are sharded
// (`--shard K/N`), resumable (`--cache-dir`/`--resume`, FNV-keyed cell
// cache), and seed-replayable: the same grid yields a byte-identical
// report across serial, `--threads N`, resumed, and shard-merged runs.
//
// Examples:
//   hammercloud --tenants 1024 --churn 0.02 --out cloud.json
//   hammercloud --families isolation,frequency,none --seeds 1,2 \
//               --cache-dir .cloud-cache --resume --out campaign.json
//   hammercloud --shard 1/2 ... --out shard1.htb    # on machine A
//   hammercloud --shard 2/2 ... --out shard2.htb    # on machine B
//   hammercloud --merge shard1.htb shard2.htb --out merged.json
//
// Replaying one interesting cell from a report:
//   hammercloud --families frequency --attacks pattern --seeds 0x2a --out replay.json
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
#include "sim/sweep/cloud.h"

using namespace ht;

namespace {

int Fail(const std::string& what) {
  std::fprintf(stderr, "hammercloud: error: %s (try --help)\n", what.c_str());
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
  const JsonValue merged = MergeCloudReports(reports, &error);
  if (merged.type() == JsonValue::Type::kNull) {
    return Fail(error);
  }
  if (!WriteReport(merged, parser.Get("out"))) {
    return Fail("cannot write " + parser.Get("out"));
  }
  std::fprintf(stderr, "hammercloud: merged %zu reports (%zu cells)\n", reports.size(),
               merged.Find("cells")->size());
  return 0;
}

void PrintRanking(const JsonValue& report) {
  const JsonValue* ranking = report.Find("ranking");
  if (ranking == nullptr) {
    return;
  }
  for (size_t i = 0; i < ranking->size(); ++i) {
    const JsonValue& entry = ranking->at(i);
    std::fprintf(stderr,
                 "hammercloud: #%zu %-12s escapes/tenant %.6f (escaped %llu, "
                 "tenants hit %llu) p99 %.1f\n",
                 i + 1, entry.Find("family")->as_string().c_str(),
                 entry.Find("flips_escaped_per_tenant")->as_double(),
                 static_cast<unsigned long long>(entry.Find("escaped_flips")->as_uint()),
                 static_cast<unsigned long long>(entry.Find("tenants_hit")->as_uint()),
                 entry.Find("p99_read_latency")->as_double());
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("hammercloud",
                   "sharded, resumable multi-tenant cloud isolation campaigns");
  parser.Option("families", "LIST", "defense families: " + KnownCloudFamilies(), "")
      .Option("attacks", "LIST", "attack kinds per family: " + KnownAttackKinds(),
              "double-sided,pattern")
      .Option("seeds", "LIST", "explicit scenario seeds to run (overrides --seed-count)")
      .Option("seed-count", "N", "run N consecutive seeds starting at --base-seed", "1")
      .Option("base-seed", "S", "first seed when --seeds is not given", "1")
      .Option("tenants", "N", "tenant slots in the population", "1024")
      .Option("pages-per-tenant", "N", "pages allocated per tenant slot", "4")
      .Option("churn", "RATE", "fraction of eligible slots recycled per epoch", "0.02")
      .Option("epochs", "N", "harvest/churn boundaries per run", "8")
      .Option("mix", "NAME", "tenant traffic mix: " + KnownTenantMixes(), "cloud")
      .Option("cycles", "N", "per-cell cycle budget", "2000000")
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
              "write the cloud report here (default: stdout; binary when FILE ends in .htb)")
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

  CloudCampaignGrid grid;
  if (!parser.Get("families").empty()) {
    for (const std::string& name : parser.GetStrings("families")) {
      const std::optional<CloudDefenseFamily> family = CloudFamilyByName(name);
      if (!family.has_value()) {
        return Fail("unknown family " + name + " (known: " + KnownCloudFamilies() + ")");
      }
      grid.families.push_back(*family);
    }
  }
  if (!parser.Get("attacks").empty()) {
    grid.attacks.clear();
    for (const std::string& name : parser.GetStrings("attacks")) {
      const std::optional<AttackKind> attack = AttackKindFromString(name);
      if (!attack.has_value()) {
        return Fail("unknown attack " + name + " (known: " + KnownAttackKinds() + ")");
      }
      grid.attacks.push_back(*attack);
    }
  }
  if (grid.attacks.empty()) {
    return Fail("no attacks (give --attacks)");
  }
  grid.seeds.clear();
  if (!parser.Get("seeds").empty()) {
    grid.seeds = parser.GetUints("seeds");
  } else {
    const uint64_t count = parser.GetUint("seed-count");
    const uint64_t base = parser.GetUint("base-seed");
    for (uint64_t i = 0; i < count; ++i) {
      grid.seeds.push_back(base + i);
    }
  }
  if (grid.seeds.empty()) {
    return Fail("no seeds (give --seeds or --seed-count > 0)");
  }
  grid.tenants = static_cast<uint32_t>(parser.GetUint("tenants"));
  if (grid.tenants < 2) {
    return Fail("--tenants must be at least 2 (attacker + victim slots)");
  }
  grid.pages_per_tenant = parser.GetUint("pages-per-tenant");
  grid.churn_rate = std::strtod(parser.Get("churn").c_str(), nullptr);
  grid.epochs = static_cast<uint32_t>(parser.GetUint("epochs"));
  grid.mix = parser.Get("mix");
  if (!IsTenantMix(grid.mix)) {
    return Fail("unknown mix " + grid.mix + " (known: " + KnownTenantMixes() + ")");
  }
  grid.run_cycles = parser.GetUint("cycles");

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
    for (const SweepCellSpec& cell : ExpandCloudGrid(grid)) {
      std::ostringstream compact;
      SpecCanonicalJson(cell.spec).Dump(compact, /*indent=*/-1);
      std::printf("%s %s\n", cell.key.c_str(), compact.str().c_str());
    }
    return 0;
  }

  const SweepOutcome outcome = RunCloudCampaign(grid, options);
  if (!outcome.ok) {
    return Fail(outcome.error);
  }
  if (!WriteReport(outcome.report, parser.Get("out"))) {
    return Fail("cannot write " + parser.Get("out"));
  }
  std::fprintf(stderr,
               "hammercloud: grid %llu cells, shard %u/%u -> %llu cells "
               "(%llu cached, %llu executed, %llu deferred)\n",
               static_cast<unsigned long long>(outcome.total_cells), options.shard_index,
               options.shard_count, static_cast<unsigned long long>(outcome.shard_cells),
               static_cast<unsigned long long>(outcome.cached_cells),
               static_cast<unsigned long long>(outcome.executed_cells),
               static_cast<unsigned long long>(outcome.skipped_cells));
  if (options.resume && !options.cache_dir.empty()) {
    std::fprintf(stderr, "hammercloud: cache %llu hits / %llu misses under %s\n",
                 static_cast<unsigned long long>(outcome.cached_cells),
                 static_cast<unsigned long long>(outcome.cache_misses),
                 options.cache_dir.c_str());
  }
  PrintRanking(outcome.report);
  std::fprintf(stderr,
               "hammercloud: shard wall %.2fs (cache %.2fs, execute %.2fs, report %.2fs)\n",
               outcome.wall_seconds, outcome.cache_seconds, outcome.execute_seconds,
               outcome.report_seconds);
  return 0;
}
