#pragma once
// Per-output round-robin arbitration, the arbiter of MemPool's logarithmic
// crossbar (Section III-A): each cycle every requested output grants one of
// the inputs that want it, starting its search at the input after the one
// it granted last. Both switch kinds run through it: an XbarSwitch's outputs
// directly, and each ButterflyNet layer as n/4 radix-4 crossbars whose
// output slot switch * 4 + digit is contended by that switch's 4 inputs.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace mempool {

class RoundRobinArbiter {
 public:
  /// @p num_outputs outputs, each contended by inputs [0, num_inputs).
  RoundRobinArbiter(std::size_t num_outputs, std::size_t num_inputs)
      : inputs_(static_cast<uint32_t>(num_inputs)),
        cand_(num_outputs * num_inputs),
        count_(num_outputs, 0),
        req_((num_outputs + 63) / 64, 0) {
    MEMPOOL_CHECK(num_inputs >= 1 && num_inputs <= UINT16_MAX);
  }

  /// Input @p in requests output @p out this cycle. The inputs requesting
  /// one output must arrive in ascending order, as an occupancy-mask scan
  /// yields them.
  void request(std::size_t out, uint16_t in) {
    cand_[out * inputs_ + count_[out]++] = in;
    req_[out / 64] |= uint64_t{1} << (out % 64);
  }

  /// Grants each requested output once, in ascending output order, and
  /// clears the requests. The winner is the first requesting input at or
  /// after the output's pointer @p rr[out], wrapping around;
  /// @p try_grant(out, in) moves its packet if the output accepts and
  /// returns whether it did, and only then does the pointer move past the
  /// winner. Returns the requests left waiting: every loser, and the winner
  /// too when its output was full.
  template <class TryGrant>
  uint64_t grant(std::span<uint32_t> rr, TryGrant&& try_grant) {
    uint64_t waiting = 0;
    for (std::size_t w = 0; w < req_.size(); ++w) {
      for (uint64_t m = std::exchange(req_[w], 0); m != 0; m &= m - 1) {
        const std::size_t out =
            w * 64 + static_cast<std::size_t>(std::countr_zero(m));
        const uint16_t* in = &cand_[out * inputs_];
        const uint32_t n = std::exchange(count_[out], uint16_t{0});
        const uint32_t ptr = rr[out];
        uint32_t k = 0;
        while (k < n && in[k] < ptr) ++k;
        const uint16_t winner = in[k < n ? k : 0];
        if (try_grant(out, winner)) {
          rr[out] = (winner + 1u) % inputs_;
          waiting += n - 1;
        } else {
          waiting += n;
        }
      }
    }
    return waiting;
  }

 private:
  uint32_t inputs_;
  std::vector<uint16_t> cand_;   ///< cand_[out * inputs_ + k]: k-th request.
  std::vector<uint16_t> count_;  ///< Requests per output this cycle.
  std::vector<uint64_t> req_;    ///< Bit out: output has a request.
};

}  // namespace mempool
