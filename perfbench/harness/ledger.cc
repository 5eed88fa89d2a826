// The traced run: the layer ledger. Every number is taken from outside the
// simulator, by timing calls into public functions, reading the StatSets
// the System already keeps, or driving one component standalone with the
// workload's own configuration. Instrumented passes re-run the workload's
// cells and must reproduce the untraced results byte for byte.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "check/oracle.h"
#include "common/thread_pool.h"
#include "dram/device.h"
#include "mc/controller.h"
#include "mc/mitigations.h"
#include "os/tenant.h"
#include "perfbench.h"
#include "sim/scenario.h"
#include "sim/workloads.h"

namespace pb {

const std::vector<std::pair<std::string, std::string>>& LayerMetricSpecs() {
  static const std::vector<std::pair<std::string, std::string>> specs = {
      // sim/runner
      {"runner.cell_setup_ms.p50", "ms"},
      {"runner.cell_run_ms.p50", "ms"},
      {"runner.cell_run_ms.tail", "ms"},
      {"runner.pool_busy_frac", "frac"},
      // sim/system
      {"sim.host_ns_per_ddr_cmd", "ns"},
      {"sim.host_ns_per_kcycle", "ns"},
      // mc
      {"mc.wake_batches", "count"},
      {"mc.cmds_per_wake", "cmd/wake"},
      {"mc.sched_ns_per_tick.q8", "ns"},
      {"mc.sched_ns_per_tick.q32", "ns"},
      {"mc.sched_ns_per_tick.q64", "ns"},
      {"mc.throttle_stalls", "count"},
      {"act.table_probes", "count"},
      {"mc.mitigation_ns_per_act.para", "ns"},
      {"mc.mitigation_ns_per_act.graphene", "ns"},
      {"mc.mitigation_ns_per_act.twice", "ns"},
      {"mc.mitigation_ns_per_act.blockhammer", "ns"},
      {"mc.sync_barriers", "count"},
      {"mc.row_hit_rate", "frac"},
      {"mc.enqueue_rejected", "count"},
      {"mc.addrmap_ns_per_line", "ns"},
      // dram
      {"dram.cmds", "count"},
      {"dram.trr_repairs", "count"},
      {"dram.flip_events", "count"},
      {"dram.illegal_commands", "count"},
      {"dram.device_ns_per_cmd", "ns"},
      // cpu
      {"cache.read_hit_rate", "frac"},
      {"core.mc_backpressure", "count"},
      {"cpu.cache_lookup_ns", "ns"},
      // defense
      {"defense.interrupts", "count"},
      {"kernel.page_moves", "count"},
      {"defense.ns_per_interrupt", "ns"},
      // os/tenant
      {"tenant.init_ms", "ms"},
      {"tenant.harvest_ms", "ms"},
      {"tenant.churn_ms", "ms"},
      {"tenant.churn_events", "count"},
      // sim/sweep
      {"sweep.expand_ms", "ms"},
      {"sweep.cache_load_s", "s"},
      {"sweep.us_per_cached_cell", "us"},
      {"sweep.report_s", "s"},
      {"sweep.cache_hit_ratio", "frac"},
      {"sweep.execute_s", "s"},
      // The traced run's own cost beside the untraced rep's, and the
      // oracle's coverage.
      {"trace.cpu_s", "s"},
      {"trace.untraced_cpu_s", "s"},
      {"oracle.commands_checked", "count"},
  };
  return specs;
}

namespace {

double Nanos(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// The highest order statistic with at least ten samples above it, or the
// maximum when that statistic would sit below the median (fewer than 21
// samples).
double Tail(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values.size() >= 21 ? values[values.size() - 11] : values.back();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Deterministic input generator for the standalone loops.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t operator()() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// Runs `body(i)` for each selected cell on kThreads workers; returns the
// pass's process CPU seconds.
template <typename Body>
double RunPass(const std::vector<size_t>& selected, Body body) {
  const double cpu0 = ProcessCpuSeconds();
  ht::ParallelFor(selected.size(), kThreads, [&](uint64_t k) { body(selected[k]); });
  return ProcessCpuSeconds() - cpu0;
}

void Mismatch(Rep* check, const std::string& why) {
  ++check->failed;
  if (check->errors.size() < 20) {
    check->errors.push_back(why);
  }
}

// ---- component timing wrappers -----------------------------------------------------

struct ComponentTime {
  double mitigation_ns = 0.0;
  uint64_t acts = 0;
  double interrupt_ns = 0.0;
  uint64_t interrupts = 0;
};

// Times every call into a freshly built McMitigation. Installed at
// on_start, before the first ACT, so the fresh instance sees exactly the
// stream the original would have.
class TimedMitigation final : public ht::McMitigation {
 public:
  TimedMitigation(std::unique_ptr<ht::McMitigation> inner, ComponentTime* time)
      : inner_(std::move(inner)), time_(time) {}

  std::string name() const override { return inner_->name(); }
  void OnActivate(uint32_t rank, uint32_t bank, uint32_t row, ht::Cycle now,
                  std::vector<ht::NeighborRefreshRequest>& out) override {
    const Clock::time_point start = Clock::now();
    inner_->OnActivate(rank, bank, row, now, out);
    time_->mitigation_ns += Nanos(start);
    ++time_->acts;
  }
  ht::Cycle ActAllowedAt(uint32_t rank, uint32_t bank, uint32_t row, ht::Cycle now) override {
    const Clock::time_point start = Clock::now();
    const ht::Cycle allowed = inner_->ActAllowedAt(rank, bank, row, now);
    time_->mitigation_ns += Nanos(start);
    return allowed;
  }
  void OnEpoch(ht::Cycle now) override {
    const Clock::time_point start = Clock::now();
    inner_->OnEpoch(now);
    time_->mitigation_ns += Nanos(start);
  }
  uint64_t SramBits() const override { return inner_->SramBits(); }
  uint64_t TableProbes() const override { return inner_->TableProbes(); }

 private:
  std::unique_ptr<ht::McMitigation> inner_;
  ComponentTime* time_;
};

// The instance InstallHwMitigation builds for `kind`.
std::unique_ptr<ht::McMitigation> FreshMitigation(ht::HwMitigationKind kind,
                                                  const ht::DramConfig& dram) {
  switch (kind) {
    case ht::HwMitigationKind::kNone:
      return nullptr;
    case ht::HwMitigationKind::kPara:
      return std::make_unique<ht::ParaMitigation>(dram.org, ht::ParaConfig{});
    case ht::HwMitigationKind::kGraphene:
      return std::make_unique<ht::GrapheneMitigation>(dram.org, dram.disturbance,
                                                      ht::GrapheneConfig{});
    case ht::HwMitigationKind::kTwice:
      return std::make_unique<ht::TwiceMitigation>(dram.org, dram.timing, dram.disturbance,
                                                   ht::TwiceConfig{});
    case ht::HwMitigationKind::kBlockHammer:
      return std::make_unique<ht::BlockHammerMitigation>(dram.org, dram.retention,
                                                         dram.disturbance,
                                                         ht::BlockHammerConfig{});
  }
  return nullptr;
}

// Records the command stream one DramDevice receives.
class CommandRecorder final : public ht::DeviceCheckObserver {
 public:
  struct Entry {
    ht::DdrCommand cmd;
    ht::Cycle now;
  };
  static constexpr size_t kMaxCommands = 400000;

  void OnCommand(const ht::DdrCommand& cmd, ht::Cycle now, ht::TimingVerdict verdict,
                 uint32_t) override {
    if (log_.size() < kMaxCommands) {
      log_.push_back({cmd, now});
      illegal_ += verdict != ht::TimingVerdict::kOk;
    }
  }
  void OnRepair(uint32_t, uint32_t, uint32_t, ht::Cycle) override {}
  void OnFlip(uint32_t, uint32_t, uint32_t, uint32_t, ht::Cycle) override {}
  void OnCommandApplied(const ht::DdrCommand&, ht::Cycle) override {}

  const std::vector<Entry>& log() const { return log_; }
  // Commands in log() the device rejected.
  uint64_t illegal() const { return illegal_; }

 private:
  std::vector<Entry> log_;
  uint64_t illegal_ = 0;
};

// ---- standalone loops ------------------------------------------------------------

// Host ns per MemoryController wake with the queue held at `depth`:
// Enqueue up to depth, Tick, jump to NextWake. Addresses are uniform over a
// 16 MiB window, so the scan sees a mix of row hits and conflicts.
double SchedNsPerTick(const ht::SystemConfig& config, uint32_t depth) {
  constexpr uint64_t kTicks = 100000;
  ht::MemoryController mc(config.dram, config.mc);
  mc.set_response_handler([](const ht::MemResponse&) {});
  const uint64_t lines = std::min<uint64_t>(mc.mapper().total_lines(), uint64_t{1} << 18);
  SplitMix rng(depth);
  uint64_t id = 0;
  ht::Cycle now = 0;
  const Clock::time_point start = Clock::now();
  for (uint64_t tick = 0; tick < kTicks; ++tick) {
    while (mc.QueuedRequests() < depth) {
      ht::MemRequest request;
      request.id = ++id;
      request.op = rng() % 4 == 0 ? ht::MemOp::kWrite : ht::MemOp::kRead;
      request.addr = (rng() % lines) * ht::kLineBytes;
      request.enqueue_cycle = now;
      if (!mc.Enqueue(request, now)) {
        break;
      }
    }
    mc.Tick(now);
    now = std::max(now + 1, mc.NextWake(now + 1));
  }
  return Nanos(start) / kTicks;
}

// Host ns per LLC lookup (fill on miss) over a working set twice the
// cache's capacity.
double CacheLookupNs(const ht::CacheConfig& config) {
  constexpr uint64_t kOps = 1000000;
  ht::Cache cache(config);
  const uint64_t lines = 2ull * config.sets * config.ways;
  SplitMix rng(7);
  const Clock::time_point start = Clock::now();
  for (uint64_t op = 0; op < kOps; ++op) {
    const ht::PhysAddr addr = (rng() % lines) * ht::kLineBytes;
    if (!cache.Lookup(addr).has_value()) {
      cache.Fill(addr, op, false);
    }
  }
  return Nanos(start) / kOps;
}

double AddrmapNsPerLine(const ht::SystemConfig& config) {
  constexpr uint64_t kOps = 1000000;
  const ht::AddressMapper mapper(config.dram.org, config.mc.scheme);
  SplitMix rng(11);
  uint64_t sink = 0;
  const Clock::time_point start = Clock::now();
  for (uint64_t op = 0; op < kOps; ++op) {
    const ht::DdrCoord coord = mapper.MapLine(rng() % mapper.total_lines());
    sink += coord.row + coord.bank + coord.column;
  }
  const double ns = Nanos(start) / kOps;
  return sink == ~uint64_t{0} ? 0.0 : ns;  // Keeps the loop observable.
}

// Host ns per DramDevice::Issue, replaying a recorded command stream into
// a fresh device of the same configuration. Returns NaN if the replay is
// not accepted exactly as the original stream was.
double DeviceNsPerCmd(const ht::DramConfig& config, const CommandRecorder& recorder) {
  ht::DramDevice device(config, 0);
  uint64_t illegal = 0;
  const Clock::time_point start = Clock::now();
  for (const CommandRecorder::Entry& entry : recorder.log()) {
    illegal += device.Issue(entry.cmd, entry.now) != ht::TimingVerdict::kOk;
  }
  const double ns = Nanos(start) / static_cast<double>(recorder.log().size());
  return illegal == recorder.illegal() ? ns : std::nan("");
}

struct TenantTimes {
  double init_ms = 0.0;
  double harvest_ms = 0.0;
  double churn_ms = 0.0;
};

// TenantManager alone on a fresh System, shaped like the cloud cells
// (RunScenario's placement rules): Init, then the 8 epochs' harvests and
// 7 churns of one cloud run. Median of three populations.
TenantTimes TimeTenants(const ht::SystemConfig& system_config, ht::TenantConfig config) {
  constexpr uint32_t kEpochs = 8;
  std::vector<double> init, harvest, churn;
  for (int round = 0; round < 3; ++round) {
    ht::System system(system_config);
    const uint64_t row_group = ht::PagesPerRowGroup(system.mc().mapper());
    config.placement_chunk = row_group;
    config.attacker_pages = std::max<uint64_t>(config.pages_per_slot, 16 * row_group);
    config.victim_pages = std::max<uint64_t>(config.pages_per_slot, 2 * row_group);
    config.stream_factory = [](const std::string& kind, ht::DomainId domain, ht::VirtAddr base,
                               uint64_t bytes, uint64_t seed) {
      return ht::MakeWorkload(kind, domain, base, bytes, ~0ull >> 1, seed);
    };
    ht::TenantManager tenants(&system.kernel(), &system.llc(), config);
    Clock::time_point start = Clock::now();
    tenants.Init();
    init.push_back(SecondsSince(start) * 1e3);
    double harvest_s = 0.0;
    double churn_s = 0.0;
    for (uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
      start = Clock::now();
      tenants.HarvestFlips();
      harvest_s += SecondsSince(start);
      if (epoch + 1 < kEpochs) {
        start = Clock::now();
        tenants.Churn(epoch);
        churn_s += SecondsSince(start);
      }
    }
    harvest.push_back(harvest_s * 1e3 / kEpochs);
    churn.push_back(churn_s * 1e3 / (kEpochs - 1));
  }
  return {Median(init), Median(harvest), Median(churn)};
}

}  // namespace

void TraceLayers(const Workload& workload, const Rep& untraced, Metrics* metrics, Rep* check) {
  const std::vector<Cell>& cells = workload.cells();
  for (const auto& [name, unit] : LayerMetricSpecs()) {
    (*metrics)[name] = Metric{0.0, unit, false};
  }
  const auto set_applicable = [&](const std::string& name, double value) {
    Metric& metric = (*metrics)[name];
    metric.value = value;
    metric.applicable = true;
  };
  const auto compare = [&](const char* pass, size_t i, const std::string& result) {
    if (result != untraced.results[i]) {
      Mismatch(check, std::string(pass) + " pass: " + cells[i].key +
                          " differs from the untraced result");
      return false;
    }
    return true;
  };
  std::vector<size_t> simulated;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (workload.Simulated(i)) {
      simulated.push_back(i);
    }
  }
  const size_t first = simulated.front();

  // Pass 1, the traced run proper: set-up/run timestamps and the System's
  // own StatSet at on_finish.
  std::vector<double> setup_ms_by_cell(cells.size()), run_ms_by_cell(cells.size());
  std::vector<ht::StatSet> stats(cells.size());
  ht::SystemConfig first_config;
  const double traced_cpu_s = RunPass(simulated, [&](size_t i) {
    const Clock::time_point entry = Clock::now();
    Clock::time_point started = entry;
    ht::ScenarioHooks hooks;
    hooks.on_start = [&](ht::System& system) {
      started = Clock::now();
      if (i == first) {
        first_config = system.config();
      }
    };
    hooks.on_finish = [&](ht::System& system) {
      run_ms_by_cell[i] = Nanos(started) / 1e6;
      stats[i] = system.CollectStats();
    };
    const std::string result = cells[i].run(&hooks);
    setup_ms_by_cell[i] = std::chrono::duration<double, std::milli>(started - entry).count();
    compare("traced", i, result);
  });
  std::vector<double> setup_ms, run_ms;
  ht::StatSet total;
  double run_s = 0.0;
  double kcycles = 0.0;
  for (size_t i : simulated) {
    setup_ms.push_back(setup_ms_by_cell[i]);
    run_ms.push_back(run_ms_by_cell[i]);
    total.MergeFrom(stats[i]);
    run_s += run_ms_by_cell[i] / 1e3;
    kcycles += static_cast<double>(cells[i].cycles) / 1e3;
  }
  set_applicable("trace.cpu_s", traced_cpu_s);
  set_applicable("trace.untraced_cpu_s", untraced.cpu_s);
  set_applicable("runner.cell_setup_ms.p50", Median(setup_ms));
  set_applicable("runner.cell_run_ms.p50", Median(run_ms));
  set_applicable("runner.cell_run_ms.tail", Tail(run_ms));

  const auto count = [&](const char* name) { return static_cast<double>(total.Get(name)); };
  const double dram_cmds = count("dram.acts") + count("dram.pres") + count("dram.preas") +
                           count("dram.reads") + count("dram.writes") + count("dram.refs") +
                           count("dram.refs_sb") + count("dram.ref_neighbors");
  set_applicable("sim.host_ns_per_ddr_cmd", Ratio(run_s * 1e9, dram_cmds));
  set_applicable("sim.host_ns_per_kcycle", Ratio(run_s * 1e9, kcycles));
  set_applicable("mc.wake_batches", count("mc.wake_batches"));
  if (const ht::Histogram* per_wake = total.GetHistogram("mc.cmds_per_wake")) {
    set_applicable("mc.cmds_per_wake", Ratio(static_cast<double>(per_wake->sum()),
                                             static_cast<double>(per_wake->count())));
  }
  set_applicable("mc.throttle_stalls", count("mc.throttle_stalls"));
  set_applicable("act.table_probes", count("act.table_probes"));
  set_applicable("mc.sync_barriers", count("mc.sync_barriers"));
  set_applicable("mc.row_hit_rate",
                 Ratio(count("mc.row_hits"),
                       count("mc.row_hits") + count("mc.row_misses") + count("mc.row_conflicts")));
  set_applicable("mc.enqueue_rejected", count("mc.enqueue_rejected"));
  set_applicable("dram.cmds", dram_cmds);
  set_applicable("dram.trr_repairs", count("dram.trr_repairs"));
  set_applicable("dram.flip_events", count("dram.flip_events"));
  set_applicable("dram.illegal_commands", count("dram.illegal_commands"));
  const double reads = count("cache.read_hits") + count("cache.read_misses");
  set_applicable("cache.read_hit_rate", Ratio(count("cache.read_hits"), reads));
  set_applicable("core.mc_backpressure", count("core.mc_backpressure"));
  set_applicable("defense.interrupts", count("defense.interrupts"));
  set_applicable("kernel.page_moves", count("kernel.page_moves"));
  for (const auto& [name, value] : untraced.layer) {
    set_applicable(name, value);
  }

  // Pass 2: component timing on the cells that have an MC mitigation or a
  // software defense. A cell's numbers count only if its result stays
  // byte-identical; otherwise they are dropped (and the drop is reported).
  std::vector<size_t> wrapped;
  for (size_t i : simulated) {
    if (cells[i].hw != ht::HwMitigationKind::kNone ||
        cells[i].defense != ht::DefenseKind::kNone) {
      wrapped.push_back(i);
    }
  }
  std::vector<char> dropped(cells.size(), 0);
  std::vector<ComponentTime> component(cells.size());
  RunPass(wrapped, [&](size_t i) {
    ht::ScenarioHooks hooks;
    ComponentTime* time = &component[i];
    hooks.on_start = [&cells, i, time](ht::System& system) {
      if (cells[i].hw != ht::HwMitigationKind::kNone) {
        system.mc().InstallMitigation(std::make_unique<TimedMitigation>(
            FreshMitigation(cells[i].hw, system.config().dram), time));
      }
      if (system.defense() != nullptr) {
        // The route System::InstallDefense installs, with a timer around it.
        system.mc().SetActInterruptHandler([&system, time](const ht::ActInterrupt& irq) {
          const Clock::time_point start = Clock::now();
          if (ht::Defense* defense = system.defense()) {
            defense->OnActInterrupt(irq, system.now());
          }
          time->interrupt_ns += Nanos(start);
          ++time->interrupts;
        });
      }
    };
    if (cells[i].run(&hooks) != untraced.results[i]) {
      *time = ComponentTime{};
      dropped[i] = 1;
    }
  });
  for (size_t i : wrapped) {
    if (dropped[i] != 0) {
      std::cout << "component timing dropped: " << cells[i].key
                << " changed its result under the timing wrapper\n";
    }
  }
  std::map<ht::HwMitigationKind, ComponentTime> by_kind;
  ComponentTime interrupts;
  for (size_t i : wrapped) {
    ComponentTime& kind = by_kind[cells[i].hw];
    kind.mitigation_ns += component[i].mitigation_ns;
    kind.acts += component[i].acts;
    interrupts.interrupt_ns += component[i].interrupt_ns;
    interrupts.interrupts += component[i].interrupts;
  }
  for (const auto& [kind, time] : by_kind) {
    if (kind != ht::HwMitigationKind::kNone && time.acts > 0) {
      set_applicable(std::string("mc.mitigation_ns_per_act.") + ht::ToString(kind),
                     time.mitigation_ns / static_cast<double>(time.acts));
    }
  }
  if (interrupts.interrupts > 0) {
    set_applicable("defense.ns_per_interrupt",
                   interrupts.interrupt_ns / static_cast<double>(interrupts.interrupts));
  }

  // Pass 3: the differential oracle on every cell (taxonomy).
  if (workload.OracleChecked()) {
    std::vector<uint64_t> observed(cells.size());
    RunPass(simulated, [&](size_t i) {
      ht::SystemOracle oracle;
      bool ok = true;
      std::string report;
      ht::ScenarioHooks hooks;
      hooks.on_start = [&oracle](ht::System& system) { oracle.Attach(system); };
      hooks.on_finish = [&](ht::System& system) {
        oracle.FinalCheck();
        ok = oracle.ok();
        report = oracle.Report();
        observed[i] = oracle.commands_observed();
        oracle.Detach(system);
      };
      const std::string result = cells[i].run(&hooks);
      if (!ok) {
        Mismatch(check, cells[i].key + ": oracle divergence: " + report);
      }
      compare("oracle", i, result);
    });
    double commands = 0.0;
    for (uint64_t n : observed) {
      commands += static_cast<double>(n);
    }
    set_applicable("oracle.commands_checked", commands);
  }

  // Pass 4: record the first simulated cell's DDR command stream for the
  // device replay.
  CommandRecorder recorder;
  ht::DramConfig dram_config;
  {
    ht::ScenarioHooks hooks;
    hooks.on_start = [&](ht::System& system) {
      dram_config = system.mc().device(0).config();
      system.mc().device(0).set_check_observer(&recorder);
    };
    hooks.on_finish = [](ht::System& system) {
      system.mc().device(0).set_check_observer(nullptr);
    };
    compare("device-record", first, cells[first].run(&hooks));
  }
  if (!recorder.log().empty()) {
    const double ns = DeviceNsPerCmd(dram_config, recorder);
    if (std::isnan(ns)) {
      Mismatch(check, "device replay: the recorded stream was not accepted as issued");
    } else {
      set_applicable("dram.device_ns_per_cmd", ns);
    }
  }

  // Standalone loops with the first simulated cell's configuration.
  set_applicable("mc.sched_ns_per_tick.q8", SchedNsPerTick(first_config, 8));
  set_applicable("mc.sched_ns_per_tick.q32", SchedNsPerTick(first_config, 32));
  set_applicable("mc.sched_ns_per_tick.q64", SchedNsPerTick(first_config, 64));
  set_applicable("cpu.cache_lookup_ns", CacheLookupNs(first_config.cache));
  set_applicable("mc.addrmap_ns_per_line", AddrmapNsPerLine(first_config));
  if (const std::optional<ht::TenantConfig> tenants = workload.Tenants()) {
    const TenantTimes times = TimeTenants(first_config, *tenants);
    set_applicable("tenant.init_ms", times.init_ms);
    set_applicable("tenant.harvest_ms", times.harvest_ms);
    set_applicable("tenant.churn_ms", times.churn_ms);
    double churn_events = 0.0;
    for (const std::string& text : untraced.results) {
      if (std::optional<ht::JsonValue> result = ht::JsonValue::Parse(text)) {
        if (const ht::JsonValue* events = result->Find("churn_events")) {
          churn_events += static_cast<double>(events->as_uint());
        }
      }
    }
    set_applicable("tenant.churn_events", churn_events);
  }
}

}  // namespace pb
