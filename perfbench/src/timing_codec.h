// TimingCompressor: a decorator the benchmark passes in through the
// compressor factory. It forwards every call to the wrapped codec and logs
// each call's start and end on the monotonic clock, the packet sizes, and
// the reconstruction error of the codec's own round trips. Both trainers
// dynamic_cast the outer codec to ErrorFeedbackCompressor, so the decorator
// sits *inside* the error-feedback wrapper:
//   ErrorFeedbackCompressor(TimingCompressor(FftCompressor | TopKCompressor))
// It therefore sees the error-corrected gradient the leaf codec receives.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "fftgrad/core/compressor.h"

namespace perfbench {

struct CodecCall {
  double start_s = 0.0;
  double end_s = 0.0;
  bool compress = false;
  double rel_error = -1.0;  ///< own round trip's ||g-g^||/||g||; -1 if not one
  double duration_s() const { return end_s - start_s; }
};

/// Everything one codec instance (one rank, or one layer) did. Written only
/// by the thread that owns the codec; read after that thread has finished.
struct CodecLog {
  std::vector<CodecCall> calls;
  double raw_bytes = 0.0;   ///< fp32 bytes handed to compress()
  double wire_bytes = 0.0;  ///< packet bytes compress() produced
  ErrorSums error;          ///< own round trips
  bool capture = true;                ///< keep copies of the last call's data
  std::vector<float> last_input;      ///< last compress() input (if capture)
  fftgrad::core::Packet last_packet;  ///< last compress() output (if capture)

  void clear_calls() {
    calls.clear();
    raw_bytes = 0.0;
    wire_bytes = 0.0;
    error = {};
  }
  double codec_s() const;
};

class TimingCompressor : public fftgrad::core::GradientCompressor {
 public:
  TimingCompressor(std::unique_ptr<fftgrad::core::GradientCompressor> inner, CodecLog& log);

  std::string name() const override { return inner_->name(); }
  fftgrad::core::Packet compress(std::span<const float> gradient) override;
  void decompress(const fftgrad::core::Packet& packet, std::span<float> out) override;
  void set_theta(double theta) override { inner_->set_theta(theta); }
  double theta() const override { return inner_->theta(); }
  double modeled_seconds_per_byte(
      const fftgrad::perfmodel::PrimitiveThroughputs& t) const override {
    return inner_->modeled_seconds_per_byte(t);
  }

 private:
  std::unique_ptr<fftgrad::core::GradientCompressor> inner_;
  CodecLog& log_;
  // The last compress() call's input and packet, until its own round trip
  // (the first decompress of identical bytes) is seen. Both callers —
  // ErrorFeedbackCompressor (its corrected-gradient buffer) and the codec
  // workloads (their input sets) — keep the input alive and unchanged until
  // then.
  std::span<const float> pending_input_;
  std::vector<std::uint8_t> pending_bytes_;
  bool awaiting_own_ = false;
};

}  // namespace perfbench
