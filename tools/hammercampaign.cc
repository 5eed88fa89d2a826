// hammercampaign — sharded, resumable campaigns over the scenario API:
//   hammercampaign sweep|pattern|cloud [flags]    run one campaign kind
//   hammercampaign merge REPORT... [--out FILE]   union shard reports of one kind
// Each kind writes its hammertime.<kind>_report.v1, byte-identical across
// serial, --threads N, resumed (--cache-dir + --resume) and shard-merged
// runs; `hammercampaign KIND --help` lists a kind's flags. Examples:
//   hammercampaign cloud --shard 1/2 ... --out shard1.htb    # on machine A
//   hammercampaign cloud --shard 2/2 ... --out shard2.htb    # on machine B
//   hammercampaign merge shard1.htb shard2.htb --out merged.json
//   hammercampaign pattern --pattern-seeds 0x2a --trr sampler-4   # replay one seed
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/argparse.h"
#include "common/telemetry/binary.h"
#include "sim/sweep/cloud.h"
#include "sim/sweep/patterns.h"
#include "sim/sweep/sweep.h"

using namespace ht;

namespace {

// `hint` is off for ArgParser errors, which end in "(try --help)" already.
int Fail(const std::string& what, bool hint = true) {
  std::fprintf(stderr, "hammercampaign: error: %s%s\n", what.c_str(), hint ? " (try --help)" : "");
  return 2;
}

bool WriteReport(const JsonValue& report, const std::string& out_path) {
  if (out_path.empty()) {
    std::fputs((report.ToString() + "\n").c_str(), stdout);
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

bool Reject(std::string* error, std::string what) {
  *error = std::move(what);
  return false;
}

// Decodes one comma-separated list of registry names through `lookup`;
// false (with `error` naming the unknown entry) on the first miss.
template <typename T, typename Lookup>
bool ParseList(const ArgParser& parser, const char* flag, Lookup lookup, const char* noun,
               const std::string& known, std::vector<T>* out, std::string* error) {
  out->clear();
  for (const std::string& name : parser.GetStrings(flag)) {
    const std::optional<T> item = lookup(name);
    if (!item.has_value()) {
      return Reject(error,
                    "unknown " + std::string(noun) + " " + name + " (known: " + known + ")");
    }
    out->push_back(*item);
  }
  return true;
}

// The explicit seed list when given, else --seed-count seeds from --base-seed.
std::vector<uint64_t> Seeds(const ArgParser& parser, const char* list_flag) {
  if (!parser.Get(list_flag).empty()) {
    return parser.GetUints(list_flag);
  }
  std::vector<uint64_t> seeds;
  const uint64_t count = parser.GetUint("seed-count");
  const uint64_t base = parser.GetUint("base-seed");
  for (uint64_t i = 0; i < count; ++i) {
    seeds.push_back(base + i);
  }
  return seeds;
}

void AddSweepFlags(ArgParser& parser) {
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
      .Flag("benign", "victim tenant runs a random co-running workload");
}

bool SweepCells(const ArgParser& parser, std::vector<SweepCellSpec>* cells, std::string* error) {
  SweepGrid grid;
  if (!ParseList(parser, "defenses", DefenseKindFromString, "defense", KnownDefenseKinds(),
                 &grid.defenses, error) ||
      !ParseList(parser, "hw", HwMitigationKindFromString, "hw mitigation",
                 KnownHwMitigationKinds(), &grid.hw, error) ||
      !ParseList(parser, "attacks", AttackKindFromString, "attack", KnownAttackKinds(),
                 &grid.attacks, error)) {
    return false;
  }
  grid.act_thresholds = parser.GetUints("thresholds");
  grid.trr_entries = parser.GetNumbers<uint32_t>("trr-entries");
  grid.blast_radii = parser.GetNumbers<uint32_t>("blast-radii");
  grid.generations = parser.GetNumbers<int>("generations");
  grid.cycle_budgets = parser.GetUints("cycles");
  grid.seeds = parser.GetUints("seeds");
  grid.sides = parser.GetNumber<uint32_t>("sides");
  grid.tenants = parser.GetNumber<uint32_t>("tenants");
  grid.pages_per_tenant = parser.GetUint("pages-per-tenant");
  grid.benign_corunner = parser.GetBool("benign");
  *cells = ExpandGrid(grid);
  return true;
}

void AddPatternFlags(ArgParser& parser) {
  parser.Option("pattern-seeds", "LIST",
                "explicit PatternBuilder seeds to run (overrides --seed-count)")
      .Option("seed-count", "N", "fuzz N consecutive seeds starting at --base-seed", "8")
      .Option("base-seed", "S", "first seed when --pattern-seeds is not given", "1")
      .Option("trr", "LIST", "TRR vendor configs: " + KnownTrrVendors(), "")
      .Option("cycles", "N", "per-cell cycle budget", "800000")
      .Option("tenants", "N", "tenant count per cell", "2")
      .Option("pages-per-tenant", "N", "pages allocated per tenant", "512")
      .Option("scenario-seed", "S", "RNG perturbation seed applied to every cell (0 = stock)",
              "0");
}

bool PatternCells(const ArgParser& parser, std::vector<SweepCellSpec>* cells,
                  std::string* error) {
  PatternCampaignGrid grid;
  grid.pattern_seeds = Seeds(parser, "pattern-seeds");
  if (grid.pattern_seeds.empty()) {
    return Reject(error, "no pattern seeds (give --pattern-seeds or --seed-count > 0)");
  }
  if (!ParseList(parser, "trr", TrrVendorByName, "TRR vendor", KnownTrrVendors(), &grid.vendors,
                 error)) {
    return false;
  }
  grid.run_cycles = parser.GetUint("cycles");
  grid.tenants = parser.GetNumber<uint32_t>("tenants");
  grid.pages_per_tenant = parser.GetUint("pages-per-tenant");
  grid.scenario_seed = parser.GetUint("scenario-seed");
  *cells = ExpandPatternGrid(grid);
  return true;
}

void AddCloudFlags(ArgParser& parser) {
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
      .Option("cycles", "N", "per-cell cycle budget", "2000000");
}

bool CloudCells(const ArgParser& parser, std::vector<SweepCellSpec>* cells, std::string* error) {
  CloudCampaignGrid grid;
  if (!ParseList(parser, "families", CloudFamilyByName, "family", KnownCloudFamilies(),
                 &grid.families, error)) {
    return false;
  }
  // An empty --attacks keeps the grid's default attacks.
  if (!parser.Get("attacks").empty() &&
      !ParseList(parser, "attacks", AttackKindFromString, "attack", KnownAttackKinds(),
                 &grid.attacks, error)) {
    return false;
  }
  if (grid.attacks.empty()) {
    return Reject(error, "no attacks (give --attacks)");
  }
  grid.seeds = Seeds(parser, "seeds");
  if (grid.seeds.empty()) {
    return Reject(error, "no seeds (give --seeds or --seed-count > 0)");
  }
  grid.tenants = parser.GetNumber<uint32_t>("tenants");
  if (grid.tenants < 2) {
    return Reject(error, "--tenants must be at least 2 (attacker + victim slots)");
  }
  grid.pages_per_tenant = parser.GetUint("pages-per-tenant");
  grid.churn_rate = parser.GetDouble("churn", 0.0, 1.0);
  grid.epochs = parser.GetNumber<uint32_t>("epochs");
  grid.mix = parser.Get("mix");
  if (!IsTenantMix(grid.mix)) {
    return Reject(error, "unknown mix " + grid.mix + " (known: " + KnownTenantMixes() + ")");
  }
  grid.run_cycles = parser.GetUint("cycles");
  *cells = ExpandCloudGrid(grid);
  return true;
}

void PrintCloudRanking(const JsonValue& report) {
  const JsonValue* ranking = report.Find("ranking");
  for (size_t i = 0; ranking != nullptr && i < ranking->size(); ++i) {
    const JsonValue& entry = ranking->at(i);
    std::fprintf(stderr,
                 "hammercampaign: #%zu %-12s escapes/tenant %.6f (escaped %" PRIu64
                 ", tenants hit %" PRIu64 ") p99 %.1f\n",
                 i + 1, FieldStr(entry, "family").c_str(),
                 FieldDouble(entry, "flips_escaped_per_tenant"), FieldUint(entry, "escaped_flips"),
                 FieldUint(entry, "tenants_hit"), FieldDouble(entry, "p99_read_latency"));
  }
}

// One row per campaign kind: its own flags, the cells they expand to, the
// report it writes (and merges), and an optional stderr summary.
struct Kind {
  const char* name;
  void (*add_flags)(ArgParser&);
  bool (*expand)(const ArgParser&, std::vector<SweepCellSpec>*, std::string*);
  const char* schema;
  ReportBuilder make_report;
  bool (*validate)(const JsonValue&, std::string*);
  void (*summary)(const JsonValue&);
};

constexpr Kind kKinds[] = {
    {"sweep", AddSweepFlags, SweepCells, kSweepReportSchema, MakeSweepReport,
     ValidateSweepReport, nullptr},
    {"pattern", AddPatternFlags, PatternCells, kPatternReportSchema, MakePatternReport,
     ValidatePatternReport, nullptr},
    {"cloud", AddCloudFlags, CloudCells, kCloudReportSchema, MakeCloudReport,
     ValidateCloudReport, PrintCloudRanking},
};
constexpr const Kind* kNoKind = std::end(kKinds);

// Unions shard reports (JSON or .htb) of one kind. The first input's
// schema picks the kind, whose validator then rejects any input of
// another schema.
int Merge(const ArgParser& parser) {
  if (parser.positionals().empty()) {
    return Fail("merge needs report files");
  }
  std::vector<JsonValue> reports;
  std::string error;
  for (const std::string& path : parser.positionals()) {
    std::optional<JsonValue> doc = ReadTelemetryDocument(path, &error);
    if (!doc.has_value()) {
      return Fail(error);
    }
    reports.push_back(std::move(*doc));
  }
  const std::string schema = FieldStr(reports[0], "schema");
  const Kind* kind = std::find_if(kKinds, kNoKind, [&](auto& k) { return schema == k.schema; });
  if (kind == kNoKind) {
    return Fail("input 0: '" + schema + "' is not a campaign report schema");
  }
  const JsonValue merged = MergeCellReports(reports, kind->validate, kind->make_report, &error);
  if (merged.type() == JsonValue::Type::kNull) {
    return Fail(error);
  }
  if (!WriteReport(merged, parser.Get("out"))) {
    return Fail("cannot write " + parser.Get("out"));
  }
  std::fprintf(stderr, "hammercampaign: merged %zu %s reports (%zu cells)\n", reports.size(),
               kind->name, merged.Find("cells")->size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const bool merge = command == "merge";
  const Kind* kind = std::find_if(kKinds, kNoKind, [&](auto& k) { return command == k.name; });
  if (kind == kNoKind && !merge) {
    std::fputs("usage: hammercampaign sweep|pattern|cloud [flags]   (KIND --help lists them)\n"
               "       hammercampaign merge REPORT... [--out FILE]\n",
               command == "--help" ? stdout : stderr);
    return command == "--help" ? 0 : 2;
  }

  ArgParser parser("hammercampaign " + command, merge ? "union shard reports of one campaign kind"
                                                      : "sharded, resumable campaigns");
  if (merge) {
    parser.AllowPositionals("REPORT...");
  } else {
    kind->add_flags(parser);
    AddSweepOptionFlags(parser);
    parser.Flag("list", "print the expanded cell list without running anything");
  }
  parser.Option("out", "FILE",
                "write the report here (default: stdout; binary when FILE ends in .htb)");
  if (!parser.Parse(argc - 1, argv + 1)) {
    return Fail(parser.error(), /*hint=*/false);
  }
  if (parser.help_requested()) {
    std::fputs(parser.Usage().c_str(), stdout);
    return 0;
  }
  if (merge) {
    return Merge(parser);
  }

  std::vector<SweepCellSpec> cells;
  SweepOptions options;
  std::string error;
  if (!kind->expand(parser, &cells, &error) || !SweepOptionsFromFlags(parser, &options, &error)) {
    return Fail(error);
  }
  if (parser.GetBool("list")) {
    for (const SweepCellSpec& cell : cells) {
      const std::string spec = SpecCanonicalJson(cell.spec).ToString(/*indent=*/-1);
      std::printf("%s %s\n", cell.key.c_str(), spec.c_str());
    }
    return 0;
  }
  const SweepOutcome outcome = RunCells(cells, options, kind->make_report);
  if (!outcome.ok) {
    return Fail(outcome.error);
  }
  if (!WriteReport(outcome.report, parser.Get("out"))) {
    return Fail("cannot write " + parser.Get("out"));
  }
  std::fprintf(stderr,
               "hammercampaign: grid %" PRIu64 " cells, shard %u/%u -> %" PRIu64
               " cells (%" PRIu64 " cached, %" PRIu64 " executed, %" PRIu64 " deferred)\n",
               outcome.total_cells, options.shard_index, options.shard_count,
               outcome.shard_cells, outcome.cached_cells, outcome.executed_cells,
               outcome.skipped_cells);
  if (options.resume && !options.cache_dir.empty()) {
    std::fprintf(stderr, "hammercampaign: cache %" PRIu64 " hits / %" PRIu64 " misses under %s\n",
                 outcome.cached_cells, outcome.cache_misses, options.cache_dir.c_str());
  }
  if (kind->summary != nullptr) {
    kind->summary(outcome.report);
  }
  std::fprintf(stderr,
               "hammercampaign: shard wall %.2fs (cache %.2fs, execute %.2fs, report %.2fs)\n",
               outcome.wall_seconds, outcome.cache_seconds, outcome.execute_seconds,
               outcome.report_seconds);
  return 0;
}
