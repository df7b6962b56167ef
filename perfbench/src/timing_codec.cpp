#include "timing_codec.h"

namespace perfbench {

double CodecLog::codec_s() const {
  double total = 0.0;
  for (const CodecCall& call : calls) total += call.duration_s();
  return total;
}

TimingCompressor::TimingCompressor(std::unique_ptr<fftgrad::core::GradientCompressor> inner,
                                   CodecLog& log)
    : inner_(std::move(inner)), log_(log) {}

fftgrad::core::Packet TimingCompressor::compress(std::span<const float> gradient) {
  CodecCall call;
  call.compress = true;
  fftgrad::core::Packet packet;
  {
    ScopedSpan span("core.compress");
    call.start_s = now_s();
    packet = inner_->compress(gradient);
    call.end_s = now_s();
  }
  log_.calls.push_back(call);
  log_.raw_bytes += static_cast<double>(gradient.size() * sizeof(float));
  log_.wire_bytes += static_cast<double>(packet.wire_bytes());
  if (log_.capture) {
    log_.last_input.assign(gradient.begin(), gradient.end());
    log_.last_packet = packet;
  }
  pending_input_ = gradient;
  pending_bytes_ = packet.bytes;
  awaiting_own_ = true;
  return packet;
}

void TimingCompressor::decompress(const fftgrad::core::Packet& packet, std::span<float> out) {
  CodecCall call;
  {
    ScopedSpan span("core.decompress");
    call.start_s = now_s();
    inner_->decompress(packet, out);
    call.end_s = now_s();
  }
  if (awaiting_own_ && packet.elements == pending_input_.size() &&
      packet.bytes == pending_bytes_) {
    awaiting_own_ = false;
    ErrorSums error;
    error.add(pending_input_, out);
    call.rel_error = error.relative();
    log_.error.add(error);
  }
  log_.calls.push_back(call);
}

}  // namespace perfbench
