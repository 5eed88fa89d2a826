// The CPU's integrated memory controller, extended with the paper's three
// proposed Rowhammer-management primitives:
//
//  1. Subarray-isolated interleaving (§4.1): an address-mapping mode plus
//     a per-domain subarray-group table (ASID-style) the host OS programs;
//     the MC checks that every request from a domain lands in its group.
//  2. Precise ACT interrupt events (§4.2): per-channel ACT counters whose
//     overflow interrupt latches the physical address of the RD/WR that
//     triggered the most recent ACT (see act_counter.h).
//  3. A host-privileged refresh instruction (§4.3): RefreshRow(pa, ap)
//     performs PRE → ACT(row) → optional PRE on the target row, giving
//     software a direct, reliable row refresh. REF_NEIGHBORS(pa, b) is the
//     optional DRAM-assisted variant.
//
// Baseline scheduling is FR-FCFS with an open-page row-buffer policy and a
// rank-level refresh manager. Each channel keeps its requests in a fixed
// slab with one age-ordered list per bank, so a scheduling scan costs
// O(banks with queued work) rather than O(queue): per bank it needs only
// the oldest request and the oldest RD/WR row hit (cached per open row).
// Hardware mitigation baselines (PARA/Graphene/TWiCe/BlockHammer) plug in
// via the McMitigation interface and are driven on every ACT.
#ifndef HAMMERTIME_SRC_MC_CONTROLLER_H_
#define HAMMERTIME_SRC_MC_CONTROLLER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/telemetry/trace.h"
#include "common/types.h"
#include "dram/device.h"
#include "mc/act_counter.h"
#include "mc/addrmap.h"
#include "mc/mitigations.h"
#include "mc/request.h"
#include "mc/sched_hooks.h"

namespace ht {

struct McConfig {
  InterleaveScheme scheme = InterleaveScheme::kCacheLine;
  bool open_page = true;           // Leave rows open after RD/WR.
  uint32_t queue_capacity = 64;    // Per-channel request queue depth.
  ActCounterConfig act_counter;
  // Enforce the domain→subarray-group table on every request (§4.1).
  bool enforce_domain_groups = false;
  // Mitigation neighbour refreshes / software victim refreshes use the
  // REF_NEIGHBORS command (DRAM assist) instead of per-row PRE+ACT pairs.
  bool use_ref_neighbors = false;
  // Blast radius software/mitigations assume when refreshing neighbours.
  // 0 = use the device's true radius (perfectly calibrated defense).
  uint32_t assumed_blast_radius = 0;
  // Event-driven busy-phase scheduling: each channel keeps the earliest
  // cycle it could next issue (from failed scans, issuing scans and
  // enqueues), NextWake returns that cycle instead of `now`, and Tick
  // memo-skips channels before it. Produces bit-identical command
  // streams and stats (scheduler telemetry aside); disable to
  // cross-check or to measure the per-cycle baseline.
  bool event_driven = true;
};

// Completion notification for a refresh-instruction invocation.
struct RefreshDone {
  PhysAddr addr = 0;
  Cycle requested = 0;
  Cycle completed = 0;
};
using RefreshDoneCallback = std::function<void(const RefreshDone&)>;

class MemoryController {
 public:
  MemoryController(const DramConfig& dram_config, const McConfig& mc_config);

  // --- Request plane --------------------------------------------------------

  // Enqueues a request; returns false when the channel queue is full
  // (callers retry next cycle — models backpressure).
  bool Enqueue(const MemRequest& request, Cycle now);

  void set_response_handler(MemResponseCallback handler) { response_handler_ = std::move(handler); }

  // Advances the controller one DRAM clock cycle.
  void Tick(Cycle now);

  // Earliest cycle >= now at which Tick(now) could change state or emit a
  // stat. Event-driven mode reports the exact next-issueable cycle even
  // while queues hold work (each channel's scheduling memo), joined with
  // in-flight read completions and the mitigation epoch; legacy mode
  // returns `now` whenever any queue holds work. Never later than the
  // controller's next actual action, so the System may advance its clock
  // straight to the returned cycle.
  Cycle NextWake(Cycle now) const;

  // Folds the mitigation's lazily maintained table probe count into
  // act.table_probes. Idempotent; the controller calls it at every
  // refresh-window rollover, the System at sampler deadlines and before
  // collecting stats. Every other MC stat is written as it happens.
  void SyncTableProbes();

  // Outstanding work (queued requests, internal ops, in-flight reads).
  bool Idle() const;
  size_t QueuedRequests() const;

  // --- Primitive #1: subarray-isolated interleaving -------------------------

  // Host-OS side of the ASID-style coordination: domain → subarray group.
  void SetDomainGroup(DomainId domain, uint32_t group) { domain_groups_[domain] = group; }
  std::optional<uint32_t> DomainGroup(DomainId domain) const;

  // --- Primitive #2: precise ACT interrupts ----------------------------------

  ActCounter& act_counter(uint32_t channel) { return *act_counters_[channel]; }
  void SetActInterruptHandler(ActInterruptHandler handler);

  // --- Primitive #3: refresh instruction ------------------------------------

  // Software-requested refresh of the row containing `addr` (§4.3).
  // Modeled as a host-privileged operation; privilege is checked by the
  // CPU layer before it reaches the MC. Returns false if the internal op
  // queue is full.
  bool RefreshRow(PhysAddr addr, bool auto_precharge, Cycle now,
                  RefreshDoneCallback done = nullptr);

  // DRAM-assisted victim refresh: REF_NEIGHBORS(addr's row, blast).
  bool RefreshNeighbors(PhysAddr addr, uint32_t blast, Cycle now);

  // --- Plumbing --------------------------------------------------------------

  const AddressMapper& mapper() const { return mapper_; }
  DramDevice& device(uint32_t channel) { return *devices_[channel]; }
  const DramDevice& device(uint32_t channel) const { return *devices_[channel]; }
  uint32_t channels() const { return static_cast<uint32_t>(devices_.size()); }

  // Host data plane: moves the representative words of lines [first,
  // end) of page `frame` straight to or from the devices, bypassing the
  // queues and timing (set-up fills and verifies, uncore page moves).
  // words[i] is line i of the page. The page is mapped once
  // (AddressMapper::MapPage); each word then goes through the device's
  // WriteLine/ReadLine, so ECC, its counters and corruption clearing
  // behave exactly as per line.
  void WritePageWords(uint64_t frame, const uint64_t* words, uint32_t first = 0,
                      uint32_t end = kLinesPerPage);
  void ReadPageWords(uint64_t frame, uint64_t* words, uint32_t first = 0,
                     uint32_t end = kLinesPerPage) const;

  void InstallMitigation(std::unique_ptr<McMitigation> mitigation);
  McMitigation* mitigation() { return mitigation_.get(); }

  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }
  const McConfig& config() const { return config_; }
  const DramConfig& dram_config() const { return dram_config_; }

  // Attach (or detach with nullptr) a scheduler check observer (see
  // mc/sched_hooks.h): it receives a pre-scan snapshot and the pick of
  // every request scan, and a snapshot behind every memo an issue or an
  // enqueue sets.
  void set_sched_check_observer(SchedulerCheckObserver* check) { sched_check_ = check; }

  // Attach (or detach with nullptr) a trace buffer; propagates to every
  // channel's device and ACT counter, so all DDR commands, flips, TRR
  // repairs, interrupts, and epoch rollovers land in one buffer.
  void set_trace(TraceBuffer* trace);

  // Total Rowhammer flip events across all channels.
  uint64_t TotalFlipEvents() const;

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr uint32_t kNoRow = 0xFFFFFFFFu;

  // One request-slab entry. `seq` is the channel's enqueue counter at
  // enqueue time, so ascending seq is queue (age) order.
  struct PendingRequest {
    MemRequest request;
    DdrCoord coord;
    uint64_t seq = 0;
    uint32_t prev = kNoSlot;  // Neighbours in the bank's age-ordered list.
    uint32_t next = kNoSlot;
    bool counted = false;     // Row-hit/miss/conflict already classified.
  };

  // A bank's queued requests (an age-ordered list through the slab) and
  // its FR summary: the oldest RD and WR to `key_row`. Enqueues and issues
  // keep the summary exact for its key; a scan that finds the bank's open
  // row differs from the key rebuilds it by walking the list.
  struct BankQueue {
    uint32_t rank = 0;        // Fixed coordinates, so scans skip the divide.
    uint32_t bank = 0;
    uint32_t head = kNoSlot;  // Oldest request.
    uint32_t tail = kNoSlot;
    uint32_t key_row = kNoRow;
    std::array<uint32_t, 2> hit = {kNoSlot, kNoSlot};  // Indexed by MemOp.
  };

  enum class InternalOpKind : uint8_t {
    kRefreshRow,       // PRE (if needed) → ACT → optional PRE.
    kRefreshNeighbors, // PRE (if needed) → REF_NEIGHBORS.
  };

  struct InternalOp {
    InternalOpKind kind = InternalOpKind::kRefreshRow;
    DdrCoord coord;
    bool auto_precharge = true;
    uint32_t blast = 0;
    bool activated = false;  // ACT already issued (awaiting final PRE).
    Cycle requested = 0;
    PhysAddr addr = 0;
    RefreshDoneCallback done;
  };

  struct InFlightRead {
    Cycle ready = 0;
    MemResponse response;
    // Min-heap by ready cycle.
    friend bool operator>(const InFlightRead& a, const InFlightRead& b) {
      return a.ready > b.ready;
    }
  };

  struct ChannelState {
    std::vector<PendingRequest> slots;  // queue_capacity entries.
    std::vector<uint32_t> free_slots;   // Stack of unused slot indices.
    std::vector<BankQueue> banks;       // ranks * banks (<= 64).
    uint64_t pending_banks = 0;         // Bit per bank with queued requests.
    uint32_t queued = 0;
    uint64_t next_seq = 0;
    std::deque<InternalOp> internal_ops;
    std::vector<Cycle> ref_due;  // Per rank.
    std::priority_queue<InFlightRead, std::vector<InFlightRead>, std::greater<>> in_flight;
    // Scheduler memo: TryRequests provably cannot issue before this cycle
    // unless channel state changes first. A failed scan sets it to its
    // blocked candidates' earliest cycle. In event-driven mode an issuing
    // scan sets it too (see TickChannel) and an enqueue lowers it to the
    // new request's bank; otherwise every event that could change a
    // scan's outcome (enqueue, any DDR command issued on the channel,
    // mitigation epoch) resets it to 0, forcing a fresh scan.
    Cycle next_sched = 0;
    // Whole-channel memo: no scheduling stage (refresh manager, internal
    // ops, requests) can issue strictly before this cycle unless channel
    // state changes first. Set, lowered and reset with next_sched, and
    // also reset by internal-op pushes. Event-driven mode gates
    // TickChannel on it and NextWake reports it; legacy mode ignores it.
    Cycle next_try = 0;
  };

  // One scheduling step for a channel; issues at most one command.
  // Returns true iff a command issued.
  bool TickChannel(uint32_t channel, Cycle now);
  // Each stage returns true iff it issued a command. On false, `retry` is
  // lowered to the earliest cycle the stage could act given unchanged
  // channel state (kNeverCycle when only a state change can unblock it).
  // On true, TryRequests sets `retry` to the earliest cycle it could issue
  // again, or to 0 when the issue left that unknown.
  bool TryRefreshManager(uint32_t channel, Cycle now, Cycle& retry);
  bool TryInternalOps(uint32_t channel, Cycle now, Cycle& retry);
  bool TryRequests(uint32_t channel, Cycle now, Cycle& retry);
  // What a scan saw besides its pick.
  struct ScanTally {
    uint32_t slot = kNoSlot;      // The picked request.
    uint32_t legal = 0;           // Candidates legal at `now`.
    Cycle blocked = kNeverCycle;  // Earliest cycle a blocked candidate turns legal.
    bool draining = false;        // A refresh slot was due.
  };
  // FR-FCFS selection over the per-bank lists. Issues nothing itself.
  SchedPick PickRequestCommand(uint32_t channel, Cycle now, ScanTally& tally);
  // Earliest cycle any of `bank`'s scan candidates becomes legal
  // (kNeverCycle for an empty bank), draining ignored. Rekeys its summary.
  Cycle BankEarliest(uint32_t channel, BankQueue& bank);
  // Earliest cycle an ACT of `row` in closed `bank` may issue: the
  // mitigation's gate answer asked at the bank's timing earliest.
  Cycle GatedAct(const BankQueue& bank, uint32_t row, Cycle timing_earliest);
  // Rekeys a bank's row-hit summary to `open_row` if it is keyed to
  // another row.
  void RefreshBankSummary(ChannelState& channel, BankQueue& bank, uint32_t open_row);
  // Fills sched_scan_ with the channel state for the check observer, with
  // the refresh slots due at `now`.
  void SnapshotScan(uint32_t channel, Cycle now);
  // Hands the check observer the claim behind the channel's scan memo:
  // nothing issues from cycle `from` up to the memo.
  void CheckMemo(uint32_t channel, Cycle from, SchedMemoKind kind);
  void IssueRequestAccess(uint32_t channel, uint32_t slot, Cycle now);
  void DrainCompletions(uint32_t channel, Cycle now);
  void NotifyMitigationActivate(const DdrCoord& coord, Cycle now);
  // Expands a neighbour-refresh request into internal ops.
  void EnqueueNeighborRefresh(const NeighborRefreshRequest& refresh, uint32_t channel, Cycle now);
  uint32_t EffectiveBlast() const;

  DramConfig dram_config_;
  McConfig config_;
  AddressMapper mapper_;
  std::vector<std::unique_ptr<DramDevice>> devices_;
  std::vector<std::unique_ptr<ActCounter>> act_counters_;
  std::vector<ChannelState> channels_;
  std::unique_ptr<McMitigation> mitigation_;
  std::unordered_map<DomainId, uint32_t> domain_groups_;
  MemResponseCallback response_handler_;
  Cycle next_epoch_ = 0;
  uint64_t epoch_index_ = 0;  // Refresh windows completed (trace only).
  StatSet stats_;
  TraceBuffer* trace_ = nullptr;
  SchedulerCheckObserver* sched_check_ = nullptr;
  SchedScan sched_scan_;  // Reused snapshot while an observer is attached.
  // Reused by NotifyMitigationActivate, so an ACT allocates nothing.
  std::vector<NeighborRefreshRequest> refresh_scratch_;

  // Interned stat handles (resolved once in the constructor; see
  // common/stats.h for lifetime rules).
  Counter* c_requests_;
  Counter* c_enqueue_rejected_;
  Counter* c_domain_group_violations_;
  Counter* c_row_hits_;
  Counter* c_row_misses_;
  Counter* c_row_conflicts_;
  Counter* c_throttle_stalls_;   // Gate-bound ACTs (SchedPick::gate_bound).
  Counter* c_reads_done_;
  Counter* c_writes_done_;
  Counter* c_refs_issued_;
  Counter* c_refs_sb_issued_;
  Counter* c_refresh_instr_;
  Counter* c_refresh_instr_acts_;
  Counter* c_mitigation_refreshes_;
  Counter* c_wake_batches_;      // Per-channel scheduling scans (summed).
  Counter* c_table_probes_;      // Mitigation flat-table probes (synced).
  Histogram* h_cmds_per_wake_;   // Commands issued per channel scan (0/1).
  Histogram* h_read_latency_;
  Histogram* h_write_latency_;
  uint64_t mitigation_probes_synced_ = 0;

  static constexpr size_t kMaxInternalOps = 256;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_MC_CONTROLLER_H_
