#include "mc/controller.h"

#include <algorithm>
#include <string>

#include "common/log.h"

namespace ht {

MemoryController::MemoryController(const DramConfig& dram_config, const McConfig& mc_config)
    : dram_config_(dram_config), config_(mc_config), mapper_(dram_config.org, mc_config.scheme) {
  const uint32_t channels = dram_config_.org.channels;
  devices_.reserve(channels);
  act_counters_.reserve(channels);
  channels_.resize(channels);
  const bool per_bank = dram_config_.retention.per_bank_refresh;
  for (uint32_t c = 0; c < channels; ++c) {
    devices_.push_back(std::make_unique<DramDevice>(dram_config_, c));
    act_counters_.push_back(std::make_unique<ActCounter>(c, config_.act_counter));
    ChannelState& channel = channels_[c];
    channel.slots.resize(config_.queue_capacity);
    channel.free_slots.reserve(config_.queue_capacity);
    for (uint32_t slot = config_.queue_capacity; slot-- > 0;) {
      channel.free_slots.push_back(slot);
    }
    // Bank-granular bitmasks (pending_banks, the drain mask) assume
    // ranks * banks <= 64, as the timing checker and refresh slots do.
    channel.banks.resize(static_cast<size_t>(dram_config_.org.ranks) * dram_config_.org.banks);
    for (uint32_t b = 0; b < channel.banks.size(); ++b) {
      channel.banks[b].rank = b / dram_config_.org.banks;
      channel.banks[b].bank = b % dram_config_.org.banks;
    }
    if (per_bank) {
      // One due-clock per (rank, bank), staggered so REFsb commands spread
      // evenly instead of bursting.
      const uint32_t slots = dram_config_.org.ranks * dram_config_.org.banks;
      channels_[c].ref_due.resize(slots);
      for (uint32_t s = 0; s < slots; ++s) {
        channels_[c].ref_due[s] =
            dram_config_.RefPeriod() + s * (dram_config_.RefPeriod() / slots);
      }
    } else {
      channels_[c].ref_due.assign(dram_config_.org.ranks, dram_config_.RefPeriod());
    }
  }
  next_epoch_ = dram_config_.retention.refresh_window;

  c_requests_ = stats_.counter("mc.requests");
  c_enqueue_rejected_ = stats_.counter("mc.enqueue_rejected");
  c_domain_group_violations_ = stats_.counter("mc.domain_group_violations");
  c_row_hits_ = stats_.counter("mc.row_hits");
  c_row_misses_ = stats_.counter("mc.row_misses");
  c_row_conflicts_ = stats_.counter("mc.row_conflicts");
  c_throttle_stalls_ = stats_.counter("mc.throttle_stalls");
  c_reads_done_ = stats_.counter("mc.reads_done");
  c_writes_done_ = stats_.counter("mc.writes_done");
  c_refs_issued_ = stats_.counter("mc.refs_issued");
  c_refs_sb_issued_ = stats_.counter("mc.refs_sb_issued");
  c_refresh_instr_ = stats_.counter("mc.refresh_instr");
  c_refresh_instr_acts_ = stats_.counter("mc.refresh_instr_acts");
  c_mitigation_refreshes_ = stats_.counter("mc.mitigation_refreshes");
  c_wake_batches_ = stats_.counter("mc.wake_batches");
  c_table_probes_ = stats_.counter("act.table_probes");
  h_cmds_per_wake_ = stats_.histogram("mc.cmds_per_wake");
  h_read_latency_ = stats_.histogram("mc.read_latency");
  h_write_latency_ = stats_.histogram("mc.write_latency");
}

std::optional<uint32_t> MemoryController::DomainGroup(DomainId domain) const {
  auto it = domain_groups_.find(domain);
  if (it == domain_groups_.end()) {
    return std::nullopt;
  }
  return it->second;
}

uint32_t MemoryController::EffectiveBlast() const {
  return config_.assumed_blast_radius != 0 ? config_.assumed_blast_radius
                                           : dram_config_.disturbance.blast_radius;
}

bool MemoryController::Enqueue(const MemRequest& request, Cycle now) {
  const DdrCoord coord = mapper_.Map(request.addr);
  ChannelState& channel = channels_[coord.channel];
  if (channel.queued >= config_.queue_capacity) {
    c_enqueue_rejected_->Increment();
    return false;
  }
  if (config_.enforce_domain_groups && request.domain != kInvalidDomain) {
    auto group = DomainGroup(request.domain);
    if (group.has_value() &&
        dram_config_.org.SubarrayOfRow(coord.row) != *group) {
      // The primitive's enforcement hook: a request escaping its domain's
      // subarray group indicates an allocator bug or an attack attempt.
      c_domain_group_violations_->Increment();
    }
  }
  const uint32_t slot = channel.free_slots.back();
  channel.free_slots.pop_back();
  PendingRequest& pending = channel.slots[slot];
  pending.request = request;
  pending.request.enqueue_cycle = now;
  pending.coord = coord;
  pending.seq = channel.next_seq++;
  pending.counted = false;
  // Append to the bank's age-ordered list; a hit on the summary's row
  // extends the summary in place (it stays the oldest only if none was).
  const uint32_t bank_slot = coord.rank * dram_config_.org.banks + coord.bank;
  BankQueue& bank = channel.banks[bank_slot];
  pending.prev = bank.tail;
  pending.next = kNoSlot;
  if (bank.tail != kNoSlot) {
    channel.slots[bank.tail].next = slot;
  } else {
    bank.head = slot;
  }
  bank.tail = slot;
  uint32_t& oldest_hit = bank.hit[static_cast<size_t>(request.op)];
  if (coord.row == bank.key_row && oldest_hit == kNoSlot) {
    oldest_hit = slot;
  }
  channel.pending_banks |= 1ull << bank_slot;
  ++channel.queued;
  if (config_.event_driven) {
    // Only this bank's candidates changed, so the earliest cycle anything
    // could issue is the old memo or this bank's earliest candidate. No
    // clamp to now + 1: DrainCompletions enqueues writebacks inside Tick,
    // before this cycle's scan, and a legal one must issue this cycle.
    const Cycle earliest = BankEarliest(coord.channel, bank);
    channel.next_sched = std::min(channel.next_sched, earliest);
    channel.next_try = std::min(channel.next_try, earliest);
    if (sched_check_ != nullptr) [[unlikely]] {
      CheckMemo(coord.channel, now, SchedMemoKind::kEnqueue);
    }
  } else {
    channel.next_sched = 0;
    channel.next_try = 0;
  }
  c_requests_->Increment();
  return true;
}

void MemoryController::SetActInterruptHandler(ActInterruptHandler handler) {
  for (auto& counter : act_counters_) {
    counter->set_handler(handler);
  }
}

bool MemoryController::RefreshRow(PhysAddr addr, bool auto_precharge, Cycle now,
                                  RefreshDoneCallback done) {
  const DdrCoord coord = mapper_.Map(addr);
  ChannelState& channel = channels_[coord.channel];
  if (channel.internal_ops.size() >= kMaxInternalOps) {
    stats_.Add("mc.refresh_row_rejected");
    return false;
  }
  InternalOp op;
  op.kind = InternalOpKind::kRefreshRow;
  op.coord = coord;
  op.auto_precharge = auto_precharge;
  op.requested = now;
  op.addr = addr;
  op.done = std::move(done);
  channel.internal_ops.push_back(std::move(op));
  channel.next_try = 0;
  c_refresh_instr_->Increment();
  return true;
}

bool MemoryController::RefreshNeighbors(PhysAddr addr, uint32_t blast, Cycle now) {
  const DdrCoord coord = mapper_.Map(addr);
  ChannelState& channel = channels_[coord.channel];
  if (channel.internal_ops.size() >= kMaxInternalOps) {
    stats_.Add("mc.refresh_neighbors_rejected");
    return false;
  }
  InternalOp op;
  op.kind = InternalOpKind::kRefreshNeighbors;
  op.coord = coord;
  op.blast = blast;
  op.requested = now;
  op.addr = addr;
  channel.internal_ops.push_back(std::move(op));
  channel.next_try = 0;
  stats_.Add("mc.refresh_neighbors_cmds");
  return true;
}

void MemoryController::Tick(Cycle now) {
  // Gate on the pointers first: without a mitigation (or tracing)
  // next_epoch_ never advances, and testing it first would make this
  // "unlikely" branch permanently taken after the first window.
  if ((mitigation_ != nullptr || trace_ != nullptr) && now >= next_epoch_) [[unlikely]] {
    if (mitigation_ != nullptr) {
      mitigation_->OnEpoch(now);
      SyncTableProbes();  // Window-granular act.table_probes for the sampler.
      HT_TRACE(trace_, next_epoch_, TraceKind::kEpochRollover, 0, 0, 0, 0, epoch_index_);
      ++epoch_index_;
      next_epoch_ += dram_config_.retention.refresh_window;
      for (ChannelState& channel : channels_) {
        channel.next_sched = 0;
        channel.next_try = 0;
      }
    } else {
      // Without a mitigation nothing else reads next_epoch_, so the trace
      // path may advance it (stamping any windows idle-skipping jumped
      // over at their true boundary cycles) without changing simulation.
      while (now >= next_epoch_) {
        trace_->Emit(next_epoch_, TraceKind::kEpochRollover, 0, 0, 0, 0, epoch_index_);
        ++epoch_index_;
        next_epoch_ += dram_config_.retention.refresh_window;
      }
    }
  }
  for (uint32_t c = 0; c < channels(); ++c) {
    ChannelState& channel = channels_[c];
    // Completions are time-driven, so they drain regardless of the
    // scheduling memo (NextWake always includes the nearest ready cycle).
    DrainCompletions(c, now);
    if (config_.event_driven && now < channel.next_try) {
      continue;  // Provably no stage can issue on this channel yet.
    }
    // One "wake batch" = one channel scan; the histogram shows how many
    // commands each scan produced (0 = a wasted wake).
    c_wake_batches_->Increment();
    h_cmds_per_wake_->Record(TickChannel(c, now) ? 1 : 0);
  }
}

void MemoryController::DrainCompletions(uint32_t channel_index, Cycle now) {
  ChannelState& channel = channels_[channel_index];
  while (!channel.in_flight.empty() && channel.in_flight.top().ready <= now) {
    MemResponse response = channel.in_flight.top().response;
    channel.in_flight.pop();
    response.complete_cycle = now;
    h_read_latency_->Record(response.Latency());
    if (response_handler_) {
      response_handler_(response);
    }
  }
}

bool MemoryController::TickChannel(uint32_t channel_index, Cycle now) {
  // Priority: refresh manager (retention correctness) > internal ops
  // (defense actions are latency-critical) > regular requests.
  ChannelState& channel = channels_[channel_index];
  Cycle refresh_retry = kNeverCycle;
  Cycle internal_retry = kNeverCycle;
  Cycle request_retry = kNeverCycle;
  if (TryRefreshManager(channel_index, now, refresh_retry)) {
    channel.next_sched = 0;
    channel.next_try = 0;
    return true;
  }
  if (TryInternalOps(channel_index, now, internal_retry)) {
    channel.next_sched = 0;
    channel.next_try = 0;
    return true;
  }
  if (TryRequests(channel_index, now, request_retry)) {
    // The post-issue memo covers the requests stage. It stands for the
    // whole channel while no internal op waits (the issue may have pushed
    // mitigation refreshes) and no refresh slot is due by the next cycle;
    // the nearest due then bounds it. Otherwise rescan next cycle.
    if (request_retry != 0 && channel.internal_ops.empty() && refresh_retry > now + 1) {
      channel.next_sched = std::min(request_retry, refresh_retry);
      channel.next_try = channel.next_sched;
      if (sched_check_ != nullptr) [[unlikely]] {
        CheckMemo(channel_index, now + 1, SchedMemoKind::kIssue);
      }
    } else {
      channel.next_sched = 0;
      channel.next_try = 0;
    }
    return true;
  }
  // Nothing issued. Every stage's retry is exact under unchanged channel
  // state, and every state change resets the memo, so skipping straight
  // to the minimum cannot miss an issue. The refresh retry always covers
  // the nearest future due (dues recede forever), keeping this finite.
  channel.next_try = std::max(std::min({refresh_retry, internal_retry, request_retry}), now + 1);
  return false;
}

bool MemoryController::TryRefreshManager(uint32_t channel_index, Cycle now, Cycle& retry) {
  ChannelState& channel = channels_[channel_index];
  DramDevice& device = *devices_[channel_index];
  // A slot crossing its due cycle changes the scan (drain state, and
  // which slot is first-due), so the nearest future due always bounds the
  // retry. Dues at or before the first due slot are accumulated below;
  // later slots cannot steal "first due" from it, so they are ignored.
  Cycle next_due = kNeverCycle;
  if (dram_config_.retention.per_bank_refresh) {
    // DDR5-style: refresh one bank at a time; the rest keep serving.
    const uint32_t banks = dram_config_.org.banks;
    for (uint32_t slot = 0; slot < channel.ref_due.size(); ++slot) {
      if (now < channel.ref_due[slot]) {
        next_due = std::min(next_due, channel.ref_due[slot]);
        continue;
      }
      const uint32_t rank = slot / banks;
      const uint32_t bank = slot % banks;
      if (device.OpenRow(rank, bank).has_value()) {
        const DdrCommand pre = DdrCommand::Pre(rank, bank);
        if (device.Check(pre, now) == TimingVerdict::kOk) {
          device.Issue(pre, now);
          return true;
        }
        retry = std::min(next_due, device.EarliestCycle(pre));
        return false;
      }
      const DdrCommand refsb = DdrCommand::RefSb(rank, bank);
      if (device.Check(refsb, now) == TimingVerdict::kOk) {
        device.Issue(refsb, now);
        channel.ref_due[slot] += dram_config_.RefPeriod();
        c_refs_sb_issued_->Increment();
        return true;
      }
      retry = std::min(next_due, device.EarliestCycle(refsb));
      return false;
    }
    retry = next_due;
    return false;
  }
  for (uint32_t rank = 0; rank < dram_config_.org.ranks; ++rank) {
    if (now < channel.ref_due[rank]) {
      next_due = std::min(next_due, channel.ref_due[rank]);
      continue;
    }
    // Drain: close any open bank, then REF.
    if (device.OpenBankMask(rank) != 0) {
      const DdrCommand prea = DdrCommand::PreAll(rank);
      if (device.Check(prea, now) == TimingVerdict::kOk) {
        device.Issue(prea, now);
        return true;
      }
      retry = std::min(next_due, device.EarliestCycle(prea));
      return false;  // Wait for tRAS etc.; keep the bus quiet for this rank.
    }
    const DdrCommand ref = DdrCommand::Ref(rank);
    if (device.Check(ref, now) == TimingVerdict::kOk) {
      device.Issue(ref, now);
      channel.ref_due[rank] += dram_config_.RefPeriod();
      c_refs_issued_->Increment();
      return true;
    }
    retry = std::min(next_due, device.EarliestCycle(ref));
    return false;
  }
  retry = next_due;
  return false;
}

bool MemoryController::TryInternalOps(uint32_t channel_index, Cycle now, Cycle& retry) {
  ChannelState& channel = channels_[channel_index];
  if (channel.internal_ops.empty()) {
    return false;  // retry stays kNeverCycle: a push resets the memo.
  }
  DramDevice& device = *devices_[channel_index];
  InternalOp& op = channel.internal_ops.front();
  const uint32_t rank = op.coord.rank;
  const uint32_t bank = op.coord.bank;
  const bool op_draining =
      dram_config_.retention.per_bank_refresh
          ? now >= channel.ref_due[rank * dram_config_.org.banks + bank]
          : now >= channel.ref_due[rank];
  if (op_draining && !op.activated) {
    // Target is draining for REF; hold defense ops briefly. The hold ends
    // only when the overdue REF issues, which resets the channel memo, and
    // the refresh-manager retry already covers progress toward it — so no
    // retry cycle of our own (kNeverCycle).
    return false;
  }
  const auto open_row = device.OpenRow(rank, bank);

  switch (op.kind) {
    case InternalOpKind::kRefreshRow: {
      if (!op.activated) {
        if (open_row.has_value()) {
          const DdrCommand pre = DdrCommand::Pre(rank, bank);
          if (device.Check(pre, now) == TimingVerdict::kOk) {
            device.Issue(pre, now);
            return true;
          }
          retry = device.EarliestCycle(pre);
          return false;
        }
        const DdrCommand act = DdrCommand::Act(rank, bank, op.coord.row);
        if (device.Check(act, now) == TimingVerdict::kOk) {
          device.Issue(act, now);
          // Refresh ACTs are not attributed to any RD/WR; they still
          // increment the raw ACT counter like real ACT_COUNT would.
          act_counters_[channel_index]->OnActivate(op.addr, kInvalidDomain, false, now);
          op.activated = true;
          c_refresh_instr_acts_->Increment();
          if (!op.auto_precharge) {
            if (op.done) {
              op.done({op.addr, op.requested, now});
            }
            channel.internal_ops.pop_front();
          }
          return true;
        }
        retry = device.EarliestCycle(act);
        return false;
      }
      // Awaiting the auto-precharge.
      const DdrCommand pre = DdrCommand::Pre(rank, bank);
      if (device.Check(pre, now) == TimingVerdict::kOk) {
        device.Issue(pre, now);
        if (op.done) {
          op.done({op.addr, op.requested, now});
        }
        channel.internal_ops.pop_front();
        return true;
      }
      retry = device.EarliestCycle(pre);
      return false;
    }
    case InternalOpKind::kRefreshNeighbors: {
      if (open_row.has_value()) {
        const DdrCommand pre = DdrCommand::Pre(rank, bank);
        if (device.Check(pre, now) == TimingVerdict::kOk) {
          device.Issue(pre, now);
          return true;
        }
        retry = device.EarliestCycle(pre);
        return false;
      }
      const DdrCommand refn = DdrCommand::RefNeighbors(rank, bank, op.coord.row, op.blast);
      if (device.Check(refn, now) == TimingVerdict::kOk) {
        device.Issue(refn, now);
        channel.internal_ops.pop_front();
        return true;
      }
      retry = device.EarliestCycle(refn);
      return false;
    }
  }
  return false;
}

bool MemoryController::TryRequests(uint32_t channel_index, Cycle now, Cycle& retry) {
  ChannelState& channel = channels_[channel_index];
  if (channel.queued == 0) {
    return false;  // retry stays kNeverCycle: an enqueue resets the memo.
  }
  if (now < channel.next_sched) {
    // Memoized from the last failed scan: channel state is unchanged
    // (every mutation resets next_sched) and no blocked command becomes
    // legal before next_sched, so the scan below would fail identically.
    retry = channel.next_sched;
    return false;
  }
  if (sched_check_ != nullptr) [[unlikely]] {
    SnapshotScan(channel_index, now);
  }
  ScanTally tally;
  const SchedPick pick = PickRequestCommand(channel_index, now, tally);
  if (sched_check_ != nullptr) [[unlikely]] {
    sched_check_->OnScan(sched_scan_, pick);
  }
  if (pick.kind == SchedPick::Kind::kNone) {
    channel.next_sched = pick.next_sched;
    retry = channel.next_sched;
    return false;
  }
  const uint32_t slot = tally.slot;
  PendingRequest& pending = channel.slots[slot];
  const DdrCoord coord = pending.coord;
  const uint64_t seq_before = channel.next_seq;
  devices_[channel_index]->Issue(pick.cmd, now);
  switch (pick.kind) {
    case SchedPick::Kind::kHit:
      if (!pending.counted) {
        c_row_hits_->Increment();  // Served without its own ACT.
      }
      IssueRequestAccess(channel_index, slot, now);
      break;
    case SchedPick::Kind::kAct:
      if (!pending.counted) {
        c_row_misses_->Increment();
        pending.counted = true;
      }
      if (pick.gate_bound) {
        c_throttle_stalls_->Increment();
      }
      act_counters_[channel_index]->OnActivate(pending.request.addr, pending.request.domain,
                                               pending.request.is_dma, now);
      NotifyMitigationActivate(pending.coord, now);
      break;
    case SchedPick::Kind::kPre:
      if (!pending.counted) {
        c_row_conflicts_->Increment();
        pending.counted = true;
      }
      break;
    case SchedPick::Kind::kNone:
      break;
  }
  // Post-issue memo. When the picked command was the scan's only legal
  // candidate, every other candidate was blocked until its earliest cycle,
  // and the issue can only raise those: deadlines only rise, the rank and
  // channel terms (tRRD, tFAW, tCCD, bus turnaround) only push later, ACT
  // gate answers only rise until the epoch resets the memo, and only the
  // picked bank's candidate set changed. So nothing can issue before the
  // blocked minimum or that one bank's new earliest. An
  // enqueue during the issue (a posted write's response can enqueue a
  // writeback) or a draining slot leaves the next cycle to a rescan.
  retry = 0;
  if (config_.event_driven && tally.legal == 1 && !tally.draining &&
      channel.next_seq == seq_before) {
    retry = std::min(tally.blocked,
                     BankEarliest(channel_index, channel.banks[coord.rank * dram_config_.org.banks +
                                                               coord.bank]));
  }
  return true;
}

void MemoryController::RefreshBankSummary(ChannelState& channel, BankQueue& bank,
                                          uint32_t open_row) {
  if (bank.key_row == open_row) {
    return;  // Enqueues and issues keep a keyed summary current.
  }
  bank.key_row = open_row;
  bank.hit = {kNoSlot, kNoSlot};
  for (uint32_t slot = bank.head; slot != kNoSlot; slot = channel.slots[slot].next) {
    const PendingRequest& pending = channel.slots[slot];
    uint32_t& oldest_hit = bank.hit[static_cast<size_t>(pending.request.op)];
    if (pending.coord.row == open_row && oldest_hit == kNoSlot) {
      oldest_hit = slot;
      if (bank.hit[0] != kNoSlot && bank.hit[1] != kNoSlot) {
        return;
      }
    }
  }
}

SchedPick MemoryController::PickRequestCommand(uint32_t channel_index, Cycle now,
                                               ScanTally& tally) {
  ChannelState& channel = channels_[channel_index];
  const TimingChecker& timing = devices_[channel_index]->timing();
  const uint32_t banks = dram_config_.org.banks;
  SchedPick pick;
  // Earliest cycle any blocked candidate becomes legal.
  Cycle block = kNeverCycle;

  // Banks with an overdue REF on their rank (or, with REFsb, on the bank
  // itself) are draining: starting new row activity there would starve
  // the refresh manager (and eventually retention).
  uint64_t draining = 0;
  if (dram_config_.retention.per_bank_refresh) {
    for (uint32_t slot = 0; slot < channel.ref_due.size(); ++slot) {
      if (now >= channel.ref_due[slot]) {
        draining |= 1ull << slot;
      }
    }
  } else {
    const uint64_t rank_banks = banks >= 64 ? ~0ull : (1ull << banks) - 1;
    for (uint32_t rank = 0; rank < channel.ref_due.size(); ++rank) {
      if (now >= channel.ref_due[rank]) {
        draining |= rank_banks << (rank * banks);
      }
    }
  }
  tally.draining = draining != 0;

  // One walk over the banks with queued work gathers every pass's
  // candidates. Each is structurally legal (hits target open banks, ACTs
  // closed ones, PRE has no precondition), so Check(cmd, now) == kOk
  // reduces to EarliestCycle(cmd) <= now and one call serves both uses.
  // A blocked candidate folds its cycle into `block`, which sets the
  // failed scan's memo and the post-issue one.
  //
  //  * Pass 1 (FR) wants the oldest legal row hit. The timing checker
  //    ignores the column (and auto-precharge), so one verdict per
  //    (bank, RD|WR) covers every such hit, and only the oldest can win.
  //  * Pass 2 (FCFS) wants an ACT for a closed bank's oldest request; a
  //    bank's younger requests never claim it. The candidate's cycle is
  //    the ACT gate's answer asked at its timing earliest (GatedAct), and
  //    the walk keeps the oldest legal one.
  //  * Pass 3 wants a PRE for a bank whose oldest request conflicts with
  //    its open row. A younger conflict never precharges under an older
  //    hit, so only the oldest request can be the one a PRE serves.
  //    Draining banks take part: closing rows is what draining waits for.
  uint32_t hit_slot = kNoSlot;
  uint32_t act_slot = kNoSlot;
  uint32_t pre_slot = kNoSlot;
  bool act_gate_bound = false;  // The gate held act_slot past its timing earliest.
  const auto older = [&channel](uint32_t slot, uint32_t than) {
    return than == kNoSlot || channel.slots[slot].seq < channel.slots[than].seq;
  };
  // Folds one candidate's earliest cycle in; true iff it is legal now.
  const auto legal = [&](Cycle earliest) {
    if (earliest > now) {
      block = std::min(block, earliest);
      return false;
    }
    ++tally.legal;
    return true;
  };
  for (uint64_t mask = channel.pending_banks; mask != 0; mask &= mask - 1) {
    const uint32_t b = static_cast<uint32_t>(__builtin_ctzll(mask));
    BankQueue& bank = channel.banks[b];
    const bool drains = (draining >> b) & 1;
    const auto open_row = timing.OpenRow(bank.rank, bank.bank);
    if (!open_row.has_value()) {
      if (drains) {
        continue;
      }
      const Cycle timing_at = timing.ActEarliest(bank.rank, bank.bank);
      const Cycle at = GatedAct(bank, channel.slots[bank.head].coord.row, timing_at);
      if (legal(at) && older(bank.head, act_slot)) {
        act_slot = bank.head;
        act_gate_bound = at > timing_at;
      }
      continue;
    }
    if (!drains) {
      RefreshBankSummary(channel, bank, *open_row);
      for (const uint32_t slot : bank.hit) {
        if (slot != kNoSlot &&
            legal(timing.RdWrEarliest(bank.rank, bank.bank,
                                      channel.slots[slot].request.op == MemOp::kWrite)) &&
            older(slot, hit_slot)) {
          hit_slot = slot;
        }
      }
    }
    if (channel.slots[bank.head].coord.row != *open_row &&
        legal(timing.PreEarliest(bank.rank, bank.bank)) && older(bank.head, pre_slot)) {
      pre_slot = bank.head;
    }
  }
  if (hit_slot != kNoSlot) {
    const PendingRequest& pending = channel.slots[hit_slot];
    const bool ap = !config_.open_page;  // Closed-page: auto-precharge.
    pick.kind = SchedPick::Kind::kHit;
    pick.seq = pending.seq;
    pick.cmd = pending.request.op == MemOp::kRead
                   ? DdrCommand::Rd(pending.coord.rank, pending.coord.bank, pending.coord.column, ap)
                   : DdrCommand::Wr(pending.coord.rank, pending.coord.bank, pending.coord.column, ap);
    tally.slot = hit_slot;
    tally.blocked = block;
    return pick;
  }

  if (act_slot != kNoSlot) {
    const PendingRequest& pending = channel.slots[act_slot];
    pick.kind = SchedPick::Kind::kAct;
    pick.seq = pending.seq;
    pick.cmd = DdrCommand::Act(pending.coord.rank, pending.coord.bank, pending.coord.row);
    pick.gate_bound = act_gate_bound;
    tally.slot = act_slot;
    tally.blocked = block;
    return pick;
  }

  if (pre_slot != kNoSlot) {
    const PendingRequest& pending = channel.slots[pre_slot];
    pick.kind = SchedPick::Kind::kPre;
    pick.seq = pending.seq;
    pick.cmd = DdrCommand::Pre(pending.coord.rank, pending.coord.bank);
    tally.slot = pre_slot;
    tally.blocked = block;
    return pick;
  }
  // Nothing issues. Candidates filtered for non-timing reasons (draining
  // banks, a bank's younger requests, an older hit pinning an open row)
  // can only unblock via a state change, which resets or lowers
  // next_sched; blocked candidates unblock at `block`.
  pick.next_sched = std::max(block, now + 1);
  return pick;
}

Cycle MemoryController::BankEarliest(uint32_t channel_index, BankQueue& bank) {
  if (bank.head == kNoSlot) {
    return kNeverCycle;
  }
  ChannelState& channel = channels_[channel_index];
  const TimingChecker& timing = devices_[channel_index]->timing();
  const auto open_row = timing.OpenRow(bank.rank, bank.bank);
  if (!open_row.has_value()) {
    return GatedAct(bank, channel.slots[bank.head].coord.row,
                    timing.ActEarliest(bank.rank, bank.bank));
  }
  RefreshBankSummary(channel, bank, *open_row);
  Cycle earliest = kNeverCycle;
  for (const uint32_t slot : bank.hit) {
    if (slot != kNoSlot) {
      earliest = std::min(earliest, timing.RdWrEarliest(bank.rank, bank.bank,
                                                        channel.slots[slot].request.op ==
                                                            MemOp::kWrite));
    }
  }
  if (channel.slots[bank.head].coord.row != *open_row) {
    earliest = std::min(earliest, timing.PreEarliest(bank.rank, bank.bank));
  }
  return earliest;
}

Cycle MemoryController::GatedAct(const BankQueue& bank, uint32_t row, Cycle timing_earliest) {
  return mitigation_ != nullptr
             ? mitigation_->ActAllowedAt(bank.rank, bank.bank, row, timing_earliest)
             : timing_earliest;
}

void MemoryController::SnapshotScan(uint32_t channel_index, Cycle now) {
  const ChannelState& channel = channels_[channel_index];
  const TimingChecker& timing = devices_[channel_index]->timing();
  SchedScan& scan = sched_scan_;
  scan.channel = channel_index;
  scan.now = now;
  scan.open_page = config_.open_page;
  scan.per_bank_refresh = dram_config_.retention.per_bank_refresh;
  scan.banks = dram_config_.org.banks;
  scan.due_slots = 0;
  for (uint32_t slot = 0; slot < channel.ref_due.size(); ++slot) {
    if (now >= channel.ref_due[slot]) {
      scan.due_slots |= 1ull << slot;
    }
  }
  scan.queue.clear();
  for (uint64_t mask = channel.pending_banks; mask != 0; mask &= mask - 1) {
    const BankQueue& bank = channel.banks[static_cast<size_t>(__builtin_ctzll(mask))];
    const size_t oldest = scan.queue.size();
    for (uint32_t slot = bank.head; slot != kNoSlot; slot = channel.slots[slot].next) {
      const PendingRequest& pending = channel.slots[slot];
      scan.queue.push_back({pending.seq, pending.coord, pending.request.op});
    }
    // A closed bank's oldest request carries the gate's answer. The gate
    // is a pure function of the mitigation's state, so asking it here as
    // well as in the scan changes nothing.
    if (!timing.OpenRow(bank.rank, bank.bank).has_value()) {
      SchedRequestView& view = scan.queue[oldest];
      view.act_allowed = GatedAct(bank, view.coord.row, timing.ActEarliest(bank.rank, bank.bank));
    }
  }
  std::sort(scan.queue.begin(), scan.queue.end(),
            [](const SchedRequestView& a, const SchedRequestView& b) { return a.seq < b.seq; });
  scan.timing = timing;
}

void MemoryController::CheckMemo(uint32_t channel_index, Cycle from, SchedMemoKind kind) {
  const Cycle memo = channels_[channel_index].next_sched;
  if (memo <= from) {
    return;  // Claims no cycle.
  }
  SnapshotScan(channel_index, from);
  sched_scan_.now = memo - 1;
  sched_check_->OnMemo(sched_scan_, kind);
}

void MemoryController::IssueRequestAccess(uint32_t channel_index, uint32_t slot, Cycle now) {
  ChannelState& channel = channels_[channel_index];
  DramDevice& device = *devices_[channel_index];
  const PendingRequest pending = channel.slots[slot];
  // Unlink from the bank's list. The request was its bank's oldest hit of
  // its kind, so the summary's next one is the first younger match.
  BankQueue& bank = channel.banks[pending.coord.rank * dram_config_.org.banks + pending.coord.bank];
  if (pending.prev != kNoSlot) {
    channel.slots[pending.prev].next = pending.next;
  } else {
    bank.head = pending.next;
  }
  if (pending.next != kNoSlot) {
    channel.slots[pending.next].prev = pending.prev;
  } else {
    bank.tail = pending.prev;
  }
  uint32_t& oldest_hit = bank.hit[static_cast<size_t>(pending.request.op)];
  if (oldest_hit == slot) {
    oldest_hit = pending.next;
    while (oldest_hit != kNoSlot &&
           (channel.slots[oldest_hit].request.op != pending.request.op ||
            channel.slots[oldest_hit].coord.row != bank.key_row)) {
      oldest_hit = channel.slots[oldest_hit].next;
    }
  }
  if (bank.head == kNoSlot) {
    channel.pending_banks &= ~(1ull << (pending.coord.rank * dram_config_.org.banks +
                                        pending.coord.bank));
  }
  channel.free_slots.push_back(slot);
  --channel.queued;

  MemResponse response;
  response.id = pending.request.id;
  response.op = pending.request.op;
  response.addr = pending.request.addr;
  response.requestor = pending.request.requestor;
  response.domain = pending.request.domain;
  response.is_dma = pending.request.is_dma;
  response.enqueue_cycle = pending.request.enqueue_cycle;

  if (pending.request.op == MemOp::kWrite) {
    device.WriteLine(pending.coord.rank, pending.coord.bank, pending.coord.row,
                     pending.coord.column, pending.request.write_value);
    // Writes are posted: complete as soon as the WR command issues.
    response.complete_cycle = now;
    c_writes_done_->Increment();
    h_write_latency_->Record(response.Latency());
    if (response_handler_) {
      response_handler_(response);
    }
    return;
  }

  // Reads complete when the burst finishes. Data is captured now — any
  // Rowhammer flip applied by an earlier ACT is already in the store.
  response.read_value =
      device.ReadLine(pending.coord.rank, pending.coord.bank, pending.coord.row,
                      pending.coord.column);
  InFlightRead in_flight;
  in_flight.ready = now + dram_config_.timing.tCL + dram_config_.timing.tBL;
  in_flight.response = response;
  channel.in_flight.push(in_flight);
  c_reads_done_->Increment();
}

void MemoryController::NotifyMitigationActivate(const DdrCoord& coord, Cycle now) {
  if (mitigation_ == nullptr) {
    return;
  }
  refresh_scratch_.clear();
  mitigation_->OnActivate(coord.rank, coord.bank, coord.row, now, refresh_scratch_);
  for (const NeighborRefreshRequest& refresh : refresh_scratch_) {
    EnqueueNeighborRefresh(refresh, coord.channel, now);
  }
}

void MemoryController::EnqueueNeighborRefresh(const NeighborRefreshRequest& refresh,
                                              uint32_t channel_index, Cycle now) {
  ChannelState& channel = channels_[channel_index];
  c_mitigation_refreshes_->Increment();
  const uint32_t blast = EffectiveBlast();
  HT_TRACE(trace_, now, TraceKind::kMitigationRefresh, static_cast<uint8_t>(channel_index),
           static_cast<uint8_t>(refresh.rank), static_cast<uint8_t>(refresh.bank),
           refresh.aggressor_row, blast);
  if (config_.use_ref_neighbors) {
    if (channel.internal_ops.size() >= kMaxInternalOps) {
      stats_.Add("mc.mitigation_refresh_dropped");
      return;
    }
    InternalOp op;
    op.kind = InternalOpKind::kRefreshNeighbors;
    op.coord = DdrCoord{channel_index, refresh.rank, refresh.bank, refresh.aggressor_row, 0};
    op.blast = blast;
    op.requested = now;
    channel.internal_ops.push_back(std::move(op));
    return;
  }
  // Without DRAM assistance the MC refreshes each *logical* neighbour row
  // with its own PRE+ACT pair. Vendor-internal remapping can defeat this —
  // exactly the imprecision §4.3's REF_NEIGHBORS proposal removes.
  const uint32_t rows_per_bank = dram_config_.org.rows_per_bank();
  for (uint32_t d = 1; d <= blast; ++d) {
    for (int sign = -1; sign <= 1; sign += 2) {
      const int64_t target = static_cast<int64_t>(refresh.aggressor_row) + sign * static_cast<int64_t>(d);
      if (target < 0 || target >= static_cast<int64_t>(rows_per_bank)) {
        continue;
      }
      if (channel.internal_ops.size() >= kMaxInternalOps) {
        stats_.Add("mc.mitigation_refresh_dropped");
        return;
      }
      InternalOp op;
      op.kind = InternalOpKind::kRefreshRow;
      op.coord =
          DdrCoord{channel_index, refresh.rank, refresh.bank, static_cast<uint32_t>(target), 0};
      op.auto_precharge = true;
      op.requested = now;
      channel.internal_ops.push_back(std::move(op));
    }
  }
}

Cycle MemoryController::NextWake(Cycle now) const {
  Cycle wake = kNeverCycle;
  if (mitigation_ != nullptr) {
    wake = std::min(wake, next_epoch_);
  }
  for (const ChannelState& channel : channels_) {
    // Completions must drain at their exact ready cycle (latency stats
    // stamp the drain cycle), so the nearest one always joins the min.
    if (!channel.in_flight.empty()) {
      wake = std::min(wake, channel.in_flight.top().ready);
    }
    if (config_.event_driven) {
      // The channel memo is the exact next-issueable cycle under the
      // current state; it also tracks the nearest refresh due, so idle
      // channels wake for retention without a separate due scan. A state
      // change resets it to 0, which lands here as "wake now".
      wake = std::min(wake, std::max(now, channel.next_try));
      continue;
    }
    // Legacy: queued work may retry a blocked command every cycle.
    if (channel.queued != 0 || !channel.internal_ops.empty()) {
      return now;
    }
    for (const Cycle due : channel.ref_due) {
      wake = std::min(wake, due);
    }
  }
  return std::max(now, wake);
}

void MemoryController::SyncTableProbes() {
  if (mitigation_ != nullptr) {
    const uint64_t probes = mitigation_->TableProbes();
    c_table_probes_->Add(probes - mitigation_probes_synced_);
    mitigation_probes_synced_ = probes;
  }
}

bool MemoryController::Idle() const {
  for (const ChannelState& channel : channels_) {
    if (channel.queued != 0 || !channel.internal_ops.empty() || !channel.in_flight.empty()) {
      return false;
    }
  }
  return true;
}

size_t MemoryController::QueuedRequests() const {
  size_t total = 0;
  for (const ChannelState& channel : channels_) {
    total += channel.queued;
  }
  return total;
}

void MemoryController::InstallMitigation(std::unique_ptr<McMitigation> mitigation) {
  mitigation_ = std::move(mitigation);
}

void MemoryController::set_trace(TraceBuffer* trace) {
  trace_ = trace;
  for (auto& device : devices_) {
    device->set_trace(trace);
  }
  for (auto& counter : act_counters_) {
    counter->set_trace(trace);
  }
}

void MemoryController::WritePageWords(uint64_t frame, const uint64_t* words, uint32_t first,
                                      uint32_t end) {
  DdrCoord coords[kLinesPerPage];
  mapper_.MapPage(frame, coords);
  for (uint32_t i = first; i < end; ++i) {
    const DdrCoord& c = coords[i];
    devices_[c.channel]->WriteLine(c.rank, c.bank, c.row, c.column, words[i]);
  }
}

void MemoryController::ReadPageWords(uint64_t frame, uint64_t* words, uint32_t first,
                                     uint32_t end) const {
  DdrCoord coords[kLinesPerPage];
  mapper_.MapPage(frame, coords);
  for (uint32_t i = first; i < end; ++i) {
    const DdrCoord& c = coords[i];
    words[i] = devices_[c.channel]->ReadLine(c.rank, c.bank, c.row, c.column);
  }
}

uint64_t MemoryController::TotalFlipEvents() const {
  uint64_t total = 0;
  for (const auto& device : devices_) {
    total += device->total_flip_events();
  }
  return total;
}

}  // namespace ht
