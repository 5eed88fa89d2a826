// E13 — google-benchmark microbenchmarks of the simulator's hot paths,
// plus a whole-system throughput report (BENCH_throughput.json). The
// microbenches guard against regressions that would make the experiment
// suite impractically slow; they do not correspond to a paper figure.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "cpu/cache.h"
#include "dram/device.h"
#include "mc/addrmap.h"
#include "mc/controller.h"
#include "mc/mitigations.h"
#include "sim/scenario.h"

namespace ht {
namespace {

void BM_AddressMap(benchmark::State& state) {
  const auto scheme = static_cast<InterleaveScheme>(state.range(0));
  AddressMapper mapper(DramConfig::SimDefault().org, scheme);
  uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.MapLine(line));
    line = (line + 97) % mapper.total_lines();
  }
}
BENCHMARK(BM_AddressMap)->DenseRange(0, 3)->Name("AddressMapper/MapLine");

void BM_DisturbanceOnActivate(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  DisturbanceParams params = config.disturbance;
  params.blast_radius = static_cast<uint32_t>(state.range(0));
  BankDisturbance bank(config.org, params);
  std::vector<DisturbanceVictim> victims;
  uint32_t row = 1;
  for (auto _ : state) {
    bank.OnActivate(row, victims);
    victims.clear();
    row = (row + 3) % config.org.rows_per_bank();
  }
}
BENCHMARK(BM_DisturbanceOnActivate)->Arg(1)->Arg(2)->Arg(4)->Name("Disturbance/OnActivate");

void BM_TimingCheckAndRecord(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  TimingChecker checker(config.org, config.timing, true);
  Cycle now = 0;
  uint32_t bank = 0;
  uint32_t row = 0;
  for (auto _ : state) {
    const DdrCommand act = DdrCommand::Act(0, bank, row);
    now = std::max(now + 1, checker.EarliestCycle(act));
    checker.Record(act, now);
    const DdrCommand pre = DdrCommand::Pre(0, bank);
    now = std::max(now + 1, checker.EarliestCycle(pre));
    checker.Record(pre, now);
    bank = (bank + 1) % config.org.banks;
    row = (row + 7) % config.org.rows_per_bank();
  }
}
BENCHMARK(BM_TimingCheckAndRecord)->Name("Timing/ActPrePair");

void BM_CacheLookup(benchmark::State& state) {
  Cache cache(CacheConfig{});
  for (PhysAddr addr = 0; addr < 4096 * kLineBytes; addr += kLineBytes) {
    cache.Fill(addr, addr, false);
  }
  PhysAddr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(addr));
    addr = (addr + 193 * kLineBytes) % (8192 * kLineBytes);
  }
}
BENCHMARK(BM_CacheLookup)->Name("Cache/Lookup");

void BM_GrapheneOnActivate(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  GrapheneConfig graphene_config;
  graphene_config.table_entries = static_cast<uint32_t>(state.range(0));
  GrapheneMitigation graphene(config.org, config.disturbance, graphene_config);
  std::vector<NeighborRefreshRequest> out;
  uint32_t row = 0;
  Cycle now = 0;
  for (auto _ : state) {
    graphene.OnActivate(0, 0, row, ++now, out);
    out.clear();
    row = (row + 11) % 997;
  }
}
BENCHMARK(BM_GrapheneOnActivate)->Arg(64)->Arg(256)->Name("Graphene/OnActivate");

void BM_BlockHammerGate(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  BlockHammerMitigation blockhammer(config.org, config.retention, config.disturbance,
                                    BlockHammerConfig{});
  uint32_t row = 0;
  Cycle now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(blockhammer.ActAllowedAt(0, 0, row, ++now));
    row = (row + 5) % 1024;
  }
}
BENCHMARK(BM_BlockHammerGate)->Name("BlockHammer/ActAllowedAt");

void BM_ControllerTick(benchmark::State& state) {
  MemoryController mc(DramConfig::SimDefault(), McConfig{});
  Rng rng(1);
  Cycle now = 0;
  uint64_t id = 0;
  for (auto _ : state) {
    if (mc.QueuedRequests() < 16) {
      MemRequest request;
      request.id = ++id;
      request.op = MemOp::kRead;
      request.addr = rng.NextBelow(1u << 20) * kLineBytes;
      mc.Enqueue(request, now);
    }
    mc.Tick(now++);
  }
}
BENCHMARK(BM_ControllerTick)->Name("Controller/TickUnderLoad");

// --- Whole-system simulation throughput -----------------------------------
//
// Measures simulated cycles per wall-clock second on an idle-heavy system
// (no instruction streams; only the refresh manager is periodically
// active) with idle skipping on and off, and writes the numbers to
// BENCH_throughput.json. This is the scenario the idle-skipping fast
// path exists for, and the report is what CI trend lines consume.

struct ThroughputSample {
  double seconds = 0.0;
  double cycles_per_sec = 0.0;
};

double WallSeconds(const ThroughputSample& sample) { return sample.seconds; }

// Keeps the faster run in `best`; a default (zero-second) `best` takes
// the first sample.
template <typename Sample>
void KeepFaster(Sample& best, const Sample& sample) {
  if (WallSeconds(best) == 0.0 || WallSeconds(sample) < WallSeconds(best)) {
    best = sample;
  }
}

// Every series in both reports is the fastest of kRounds runs, and each
// round runs every series once. The runs are short (under a millisecond to
// under a second), so one sample is mostly host noise. Other load only
// ever adds time, so the fastest run is the steadiest estimate of a run's
// own cost. Interference on a shared host comes in episodes of seconds, so
// the rounds interleave the series in time: an episode slows one round of
// every series rather than every run of one. This keeps the shares and
// ratios the trend gates compare stable.
constexpr int kRounds = 5;
// A skipping idle-heavy run lasts under a millisecond: take many per round.
constexpr int kSkipOnRunsPerRound = 16;

ThroughputSample MeasureIdleHeavy(bool skip_idle, Cycle cycles) {
  SystemConfig config;
  config.skip_idle = skip_idle;
  System system(config);
  const auto start = std::chrono::steady_clock::now();
  system.RunFor(cycles);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  ThroughputSample sample;
  sample.seconds = elapsed.count();
  sample.cycles_per_sec =
      sample.seconds > 0.0 ? static_cast<double>(cycles) / sample.seconds : 0.0;
  return sample;
}

void WriteThroughputReport() {
  const Cycle cycles = std::min<Cycle>(30000000, BenchSmokeCap());
  ThroughputSample off;
  ThroughputSample on;
  for (int round = 0; round < kRounds; ++round) {
    KeepFaster(off, MeasureIdleHeavy(false, cycles));
    for (int run = 0; run < kSkipOnRunsPerRound; ++run) {
      KeepFaster(on, MeasureIdleHeavy(true, cycles));
    }
  }
  const double speedup = off.cycles_per_sec > 0.0 ? on.cycles_per_sec / off.cycles_per_sec : 0.0;

  FILE* out = std::fopen("BENCH_throughput.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_throughput.json");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"idle_heavy\",\n"
               "  \"simulated_cycles\": %llu,\n"
               "  \"skip_idle_off\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "  \"skip_idle_on\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "  \"speedup\": %.2f\n"
               "}\n",
               static_cast<unsigned long long>(cycles), off.seconds, off.cycles_per_sec,
               on.seconds, on.cycles_per_sec, speedup);
  std::fclose(out);
  std::printf("System/IdleHeavy: %llu cycles — skip off %.0f cyc/s, skip on %.0f cyc/s "
              "(%.1fx); wrote BENCH_throughput.json\n",
              static_cast<unsigned long long>(cycles), off.cycles_per_sec, on.cycles_per_sec,
              speedup);
}

// --- Busy-phase scheduling throughput ---------------------------------------
//
// The counterpart of the idle-heavy report: hammer-heavy load whose MC
// queues are almost never empty, so idle skipping alone cannot help.
// Measures simulated cycles per wall-clock second with the event-driven
// busy-phase scheduler (exact NextWake from the timing tables, memo-gated
// channel scans, interval-accounted core stalls) off and on, and writes
// BENCH_busy.json; every series is the fastest of kRounds runs. Command
// streams and stats are bit-identical between the two
// modes (tests/test_event_scheduling.cc holds that line), so this is a
// pure scheduling-overhead comparison. Two scenarios:
//
//  * mc_hammer_loop — the controller driven directly with a saturating
//    same-bank row-conflict stream, the clock advanced by NextWake (event)
//    or per-cycle (legacy). Isolates the busy-phase scheduler: every
//    skipped cycle is a dead rescan the legacy mode pays for.
//  * system_hammer — the whole-system version (hammer core + streaming
//    co-runner); cores and caches dilute the MC win, so this bounds the
//    end-to-end benefit the way E1 wall-clock does.

ThroughputSample MeasureMcHammerLoop(bool event_driven, Cycle cycles) {
  McConfig config;
  config.event_driven = event_driven;
  MemoryController mc(DramConfig::SimDefault(), config);

  // Three same-bank rows cycled at queue depth 2: no two queued requests
  // ever share a row, so every access is a row conflict forcing its own
  // PRE+ACT at tRC spacing — the classic hammer loop. The channel is
  // timing-blocked between commands while the queue stays full, which is
  // exactly the busy phase the event scheduler targets.
  const AddressMapper& mapper = mc.mapper();
  std::vector<PhysAddr> aggressors;
  uint32_t last_row = ~0u;
  for (PhysAddr addr = 0;
       aggressors.size() < 3 && addr < mapper.total_lines() * kLineBytes; addr += kLineBytes) {
    const DdrCoord coord = mapper.Map(addr);
    if (coord.channel == 0 && coord.rank == 0 && coord.bank == 0 && coord.row != last_row) {
      aggressors.push_back(addr);
      last_row = coord.row;
    }
  }

  uint64_t id = 0;
  size_t cursor = 0;
  const auto start = std::chrono::steady_clock::now();
  for (Cycle now = 0; now < cycles;) {
    while (mc.QueuedRequests() < 2) {
      MemRequest request;
      request.id = ++id;
      request.op = MemOp::kRead;
      request.addr = aggressors[cursor++ % aggressors.size()];
      if (!mc.Enqueue(request, now)) {
        break;
      }
    }
    mc.Tick(now);
    now = event_driven ? std::max(now + 1, mc.NextWake(now)) : now + 1;
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  ThroughputSample sample;
  sample.seconds = elapsed.count();
  sample.cycles_per_sec =
      sample.seconds > 0.0 ? static_cast<double>(cycles) / sample.seconds : 0.0;
  return sample;
}

ThroughputSample MeasureHammerHeavy(bool event_driven, Cycle cycles) {
  SystemConfig config;
  config.cores = 2;
  config.core.window = 2;  // Tight window: the cores lean on the MC.
  config.mc.event_driven = event_driven;
  config.core.event_driven = event_driven;
  System system(config);
  auto tenants = SetupTenants(system, 2, /*pages_each=*/512);
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  HammerConfig hammer;
  if (plan.has_value()) {
    hammer.aggressors = plan->aggressor_vas;
  }
  system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
  system.AssignCore(1, tenants[1],
                    MakeWorkload("stream", tenants[1], AddressSpace::BaseFor(tenants[1]),
                                 512 * kPageBytes, /*total_ops=*/~0ull >> 1, 8));
  const auto start = std::chrono::steady_clock::now();
  system.RunFor(cycles);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  ThroughputSample sample;
  sample.seconds = elapsed.count();
  sample.cycles_per_sec =
      sample.seconds > 0.0 ? static_cast<double>(cycles) / sample.seconds : 0.0;
  return sample;
}

// --- Channel-scaling throughput ---------------------------------------------
//
// The sharded-advance A/B: every channel is driven with its own saturating
// same-bank hammer loop, its queue refilled to capacity at fixed window
// boundaries so it never runs dry — the whole run decomposes into busy,
// coupling-free windows the adaptive sharded path takes in one dispatch
// each. threads == 0 runs the serial event-driven reference (Tick /
// NextWake clamped per window); otherwise AdvanceChannels() advances all
// channels with exactly `threads` members on the persistent worker group.
// Work done (mc.reads_done) must be identical across every variant, and
// the shard self-telemetry (barriers, wait cycles, window histogram) must
// be identical across thread counts — both checked by the caller.
// HT_SHARD_MIN_WINDOW overrides McConfig::shard_min_window (the benches
// use google-benchmark's main, so the runner's --shard-min-window flag is
// not available here).

constexpr Cycle kShardBenchWindow = 768;
constexpr uint32_t kShardBenchQueueDepth = 64;

struct ShardSample {
  ThroughputSample throughput;
  uint64_t reads_done = 0;
  uint64_t sync_barriers = 0;
  uint64_t shard_wait_cycles = 0;
  uint64_t window_count = 0;
  double window_mean = 0.0;
  uint64_t window_max = 0;
};

double WallSeconds(const ShardSample& sample) { return sample.throughput.seconds; }

Cycle ShardMinWindowFromEnv() {
  if (const char* env = std::getenv("HT_SHARD_MIN_WINDOW"); env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env && parsed > 0) {
      return static_cast<Cycle>(parsed);
    }
  }
  return 0;
}

ShardSample MeasureShardedHammerLoop(uint32_t channels, unsigned threads, Cycle cycles) {
  DramConfig dram = DramConfig::SimDefault();
  dram.org.channels = channels;
  McConfig config;
  config.event_driven = true;
  config.shard_channels = true;
  config.queue_capacity = kShardBenchQueueDepth;
  if (const Cycle min_window = ShardMinWindowFromEnv(); min_window != 0) {
    config.shard_min_window = min_window;
  }
  MemoryController mc(dram, config);

  // Per-channel aggressor triples (same bank, distinct rows): each channel
  // stays busy the whole window — FR-FCFS batches the row hits within each
  // refill and pays a row conflict between rows, which is the command mix
  // of a hammer loop under a deep queue.
  const AddressMapper& mapper = mc.mapper();
  std::vector<std::vector<PhysAddr>> aggressors(channels);
  uint32_t filled = 0;
  for (PhysAddr addr = 0;
       filled < channels && addr < mapper.total_lines() * kLineBytes; addr += kLineBytes) {
    const DdrCoord coord = mapper.Map(addr);
    std::vector<PhysAddr>& list = aggressors[coord.channel];
    if (coord.rank != 0 || coord.bank != 0 || list.size() >= 3 ||
        (!list.empty() && mapper.Map(list.back()).row == coord.row)) {
      continue;
    }
    list.push_back(addr);
    if (list.size() == 3) {
      ++filled;
    }
  }

  uint64_t id = 0;
  std::vector<size_t> cursor(channels, 0);
  const auto start = std::chrono::steady_clock::now();
  for (Cycle now = 0; now < cycles;) {
    const Cycle wend = std::min(cycles, now + kShardBenchWindow);
    for (uint32_t c = 0; c < channels; ++c) {
      // Top the queue up to capacity; Enqueue rejects at the brim.
      for (uint32_t k = 0; k < kShardBenchQueueDepth; ++k) {
        MemRequest request;
        request.id = ++id;
        request.op = MemOp::kRead;
        request.addr = aggressors[c][cursor[c]++ % aggressors[c].size()];
        if (!mc.Enqueue(request, now)) {
          break;
        }
      }
    }
    if (threads == 0) {
      for (Cycle t = now; t < wend;) {
        mc.Tick(t);
        t = std::max(t + 1, std::min(mc.NextWake(t), wend));
      }
    } else {
      for (Cycle t = now; t < wend;) {
        const Cycle reached = mc.AdvanceChannels(t, wend, threads);
        if (reached <= t) {
          mc.Tick(t);
          t = std::max(t + 1, std::min(mc.NextWake(t), wend));
        } else {
          t = reached;
        }
      }
    }
    now = wend;
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  ShardSample sample;
  sample.throughput.seconds = elapsed.count();
  sample.throughput.cycles_per_sec =
      sample.throughput.seconds > 0.0 ? static_cast<double>(cycles) / sample.throughput.seconds
                                      : 0.0;
  StatSet& stats = mc.stats();
  sample.reads_done = stats.Get("mc.reads_done");
  sample.sync_barriers = stats.Get("mc.sync_barriers");
  sample.shard_wait_cycles = stats.Get("mc.shard_wait_cycles");
  if (const Histogram* windows = stats.GetHistogram("mc.shard_window"); windows != nullptr) {
    sample.window_count = windows->count();
    sample.window_mean = windows->Mean();
    sample.window_max = windows->max();
  }
  return sample;
}

void WriteBusyReport() {
  const Cycle mc_cycles = std::min<Cycle>(8000000, BenchSmokeCap());
  const Cycle sys_cycles = std::min<Cycle>(4000000, BenchSmokeCap());

  // Channel-scaling sweep: serial reference vs sharded advance at pool
  // widths {1, 2, 4, 8} for each channel count. Width 1 is the pure
  // shard-loop algorithmic delta (no barrier, no helpers); wider runs
  // spawn real persistent workers even when the host has a single core,
  // so the series doubles as overhead telemetry there. Work identity
  // (reads_done) and shard self-telemetry identity across widths are both
  // hard-checked here — barriers/wait/window stats are cycle-domain
  // quantities and must not depend on the thread count.
  const Cycle shard_cycles = std::min<Cycle>(2000000, BenchSmokeCap());
  constexpr unsigned kShardWidths[] = {1, 2, 4, 8};
  struct ShardRow {
    uint32_t channels = 0;
    ShardSample serial;
    ShardSample sharded[4];
  };
  std::vector<ShardRow> shard_rows;
  for (uint32_t channels : {1u, 2u, 4u, 8u}) {
    ShardRow row;
    row.channels = channels;
    shard_rows.push_back(row);
  }

  ThroughputSample mc_off;
  ThroughputSample mc_on;
  ThroughputSample sys_off;
  ThroughputSample sys_on;
  for (int round = 0; round < kRounds; ++round) {
    KeepFaster(mc_off, MeasureMcHammerLoop(false, mc_cycles));
    KeepFaster(mc_on, MeasureMcHammerLoop(true, mc_cycles));
    KeepFaster(sys_off, MeasureHammerHeavy(false, sys_cycles));
    KeepFaster(sys_on, MeasureHammerHeavy(true, sys_cycles));
    for (ShardRow& row : shard_rows) {
      KeepFaster(row.serial, MeasureShardedHammerLoop(row.channels, 0, shard_cycles));
      for (size_t w = 0; w < 4; ++w) {
        KeepFaster(row.sharded[w],
                   MeasureShardedHammerLoop(row.channels, kShardWidths[w], shard_cycles));
      }
    }
  }
  const double mc_speedup =
      mc_off.cycles_per_sec > 0.0 ? mc_on.cycles_per_sec / mc_off.cycles_per_sec : 0.0;
  const double sys_speedup =
      sys_off.cycles_per_sec > 0.0 ? sys_on.cycles_per_sec / sys_off.cycles_per_sec : 0.0;

  for (const ShardRow& row : shard_rows) {
    const uint32_t channels = row.channels;
    for (size_t w = 0; w < 4; ++w) {
      if (row.sharded[w].reads_done != row.serial.reads_done) {
        std::fprintf(stderr,
                     "channel_scaling identity violation at %u channels, %u threads: "
                     "reads_done %llu vs serial %llu\n",
                     channels, kShardWidths[w],
                     static_cast<unsigned long long>(row.sharded[w].reads_done),
                     static_cast<unsigned long long>(row.serial.reads_done));
      }
      if (row.sharded[w].sync_barriers != row.sharded[0].sync_barriers ||
          row.sharded[w].shard_wait_cycles != row.sharded[0].shard_wait_cycles ||
          row.sharded[w].window_count != row.sharded[0].window_count ||
          row.sharded[w].window_max != row.sharded[0].window_max) {
        std::fprintf(stderr,
                     "channel_scaling telemetry divergence at %u channels, %u threads: "
                     "barriers %llu/%llu wait %llu/%llu windows %llu/%llu\n",
                     channels, kShardWidths[w],
                     static_cast<unsigned long long>(row.sharded[w].sync_barriers),
                     static_cast<unsigned long long>(row.sharded[0].sync_barriers),
                     static_cast<unsigned long long>(row.sharded[w].shard_wait_cycles),
                     static_cast<unsigned long long>(row.sharded[0].shard_wait_cycles),
                     static_cast<unsigned long long>(row.sharded[w].window_count),
                     static_cast<unsigned long long>(row.sharded[0].window_count));
      }
    }
  }

  FILE* out = std::fopen("BENCH_busy.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_busy.json");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"mc_hammer_loop\",\n"
               "  \"simulated_cycles\": %llu,\n"
               "  \"event_driven_off\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "  \"event_driven_on\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "  \"speedup\": %.2f,\n"
               "  \"system_hammer\": {\n"
               "    \"simulated_cycles\": %llu,\n"
               "    \"event_driven_off\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "    \"event_driven_on\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "    \"speedup\": %.2f\n"
               "  },\n"
               "  \"channel_scaling\": {\n"
               "    \"simulated_cycles\": %llu,\n"
               "    \"window\": %llu,\n"
               "    \"queue_depth\": %u,\n",
               static_cast<unsigned long long>(mc_cycles), mc_off.seconds, mc_off.cycles_per_sec,
               mc_on.seconds, mc_on.cycles_per_sec, mc_speedup,
               static_cast<unsigned long long>(sys_cycles), sys_off.seconds,
               sys_off.cycles_per_sec, sys_on.seconds, sys_on.cycles_per_sec, sys_speedup,
               static_cast<unsigned long long>(shard_cycles),
               static_cast<unsigned long long>(kShardBenchWindow), kShardBenchQueueDepth);
  for (size_t i = 0; i < shard_rows.size(); ++i) {
    const ShardRow& row = shard_rows[i];
    std::fprintf(out,
                 "    \"ch%u\": {\n"
                 "      \"serial\": {\"cycles_per_sec\": %.0f},\n"
                 "      \"sharded\": [\n",
                 row.channels, row.serial.throughput.cycles_per_sec);
    for (size_t w = 0; w < 4; ++w) {
      const ShardSample& sample = row.sharded[w];
      const double speedup = row.serial.throughput.cycles_per_sec > 0.0
                                 ? sample.throughput.cycles_per_sec /
                                       row.serial.throughput.cycles_per_sec
                                 : 0.0;
      std::fprintf(out,
                   "        {\"pool_threads\": %u, \"cycles_per_sec\": %.0f, "
                   "\"speedup_vs_serial\": %.2f, \"sync_barriers\": %llu, "
                   "\"shard_wait_cycles\": %llu, \"windows\": {\"count\": %llu, "
                   "\"mean_cycles\": %.1f, \"max_cycles\": %llu}}%s\n",
                   kShardWidths[w], sample.throughput.cycles_per_sec, speedup,
                   static_cast<unsigned long long>(sample.sync_barriers),
                   static_cast<unsigned long long>(sample.shard_wait_cycles),
                   static_cast<unsigned long long>(sample.window_count), sample.window_mean,
                   static_cast<unsigned long long>(sample.window_max), w + 1 < 4 ? "," : "");
    }
    std::fprintf(out,
                 "      ]\n"
                 "    }%s\n",
                 i + 1 < shard_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  }\n"
               "}\n");
  std::fclose(out);
  std::printf("MC/HammerLoop: %llu cycles — event off %.0f cyc/s, event on %.0f cyc/s (%.1fx)\n",
              static_cast<unsigned long long>(mc_cycles), mc_off.cycles_per_sec,
              mc_on.cycles_per_sec, mc_speedup);
  std::printf("System/HammerHeavy: %llu cycles — event off %.0f cyc/s, event on %.0f cyc/s "
              "(%.1fx)\n",
              static_cast<unsigned long long>(sys_cycles), sys_off.cycles_per_sec,
              sys_on.cycles_per_sec, sys_speedup);
  for (const ShardRow& row : shard_rows) {
    std::printf("MC/ChannelScaling x%u: serial %.0f cyc/s", row.channels,
                row.serial.throughput.cycles_per_sec);
    for (size_t w = 0; w < 4; ++w) {
      const double speedup = row.serial.throughput.cycles_per_sec > 0.0
                                 ? row.sharded[w].throughput.cycles_per_sec /
                                       row.serial.throughput.cycles_per_sec
                                 : 0.0;
      std::printf(", %ut %.0f (%.2fx)", kShardWidths[w],
                  row.sharded[w].throughput.cycles_per_sec, speedup);
    }
    std::printf(" | barriers %llu, wait %llu, window mean %.0f max %llu\n",
                static_cast<unsigned long long>(row.sharded[0].sync_barriers),
                static_cast<unsigned long long>(row.sharded[0].shard_wait_cycles),
                row.sharded[0].window_mean,
                static_cast<unsigned long long>(row.sharded[0].window_max));
  }
  std::printf("wrote BENCH_busy.json\n");
}

}  // namespace
}  // namespace ht

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ht::WriteThroughputReport();
  ht::WriteBusyReport();
  return 0;
}
