#include "defense/scrub_defense.h"

namespace ht {

void ScrubDefense::Attach(HostKernel* kernel, Cache* cache) {
  Defense::Attach(kernel, cache);
  ecc_available_ = kernel_->mc().dram_config().ecc.enabled;
  if (!ecc_available_) {
    stats_.Add("defense.scrub_disabled_no_ecc");
  }
}

void ScrubDefense::RefreshFrameList() {
  frames_ = kernel_->MappedFrames();
  frame_cursor_ = 0;
  line_cursor_ = 0;
}

void ScrubDefense::ScrubLine(PhysAddr addr, Cycle now) {
  MemoryController& mc = kernel_->mc();
  const DdrCoord coord = mc.mapper().Map(addr);
  DramDevice& device = mc.device(coord.channel);
  // Read through ECC (corrects single-bit corruption in the returned
  // word) and write the corrected value back, persisting the repair.
  const uint64_t corrected =
      device.ReadLine(coord.rank, coord.bank, coord.row, coord.column);
  device.WriteLine(coord.rank, coord.bank, coord.row, coord.column, corrected);
  c_lines_scrubbed_->Increment();

  // Charge the memory-bandwidth cost: the patrol read goes through the
  // normal request path (fire-and-forget).
  MemRequest request;
  request.id = (0x5C2Bull << 44) | next_req_id_++;
  request.op = MemOp::kRead;
  request.addr = addr;
  request.requestor = 0x5C2B;
  if (!mc.Enqueue(request, now)) {
    c_scrub_backpressure_->Increment();
  }
}

void ScrubDefense::Tick(Cycle now) {
  if (!ecc_available_ || now < next_burst_) {
    return;
  }
  next_burst_ = now + config_.interval;
  if (frame_cursor_ >= frames_.size()) {
    RefreshFrameList();
    if (frames_.empty()) {
      return;
    }
    stats_.Add("defense.scrub_passes");
    HT_TRACE(trace_, now, TraceKind::kDefenseAction, 0, 0, 0, 0, frames_.size());
  }
  for (uint32_t i = 0; i < config_.lines_per_burst && frame_cursor_ < frames_.size(); ++i) {
    const PhysAddr addr =
        frames_[frame_cursor_] * kPageBytes + static_cast<PhysAddr>(line_cursor_) * kLineBytes;
    ScrubLine(addr, now);
    if (++line_cursor_ >= kLinesPerPage) {
      line_cursor_ = 0;
      ++frame_cursor_;
    }
  }
}

}  // namespace ht
