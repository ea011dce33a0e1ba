// Steady-state stepping allocates nothing: once a Snitch-driven kernel is past
// its warm-up, no engine cycle touches the heap. This binary replaces every
// global operator new form with a counting one, so the check sees every heap
// allocation, not just the ones a particular allocator reports.
//
// The sharded engine runs with one sim thread, so its lanes step inline on
// the test thread. TopX is left out: its unbounded ideal bank queues grow by
// doubling in every new cluster (that policy is pinned in
// test_sim_buffer.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "core/system.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, std::max(align, sizeof(void*)), size) != 0) {
    p = nullptr;
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable global allocation form, and every deallocation form to
// match: a form left out would fall back to the runtime's own (ASan's, in a
// sanitizer build), which reports freeing malloc'd memory as a mismatch.
void* operator new(std::size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mempool {
namespace {

constexpr uint64_t kWarmupCycles = 100;

/// Run a mini-cluster matmul under @p mode and return the heap allocations
/// made after the warm-up, up to and including the final fabric drain.
uint64_t allocations_after_warmup(const std::string& topology,
                                  EngineMode mode) {
  const ClusterConfig cfg = ClusterConfig::mini(topology, true);
  const kernels::KernelProgram kp = kernels::build_matmul(cfg, 16);
  System sys(cfg);
  sys.configure_engine(mode, /*sim_threads=*/1);
  sys.load_program(kp.image);
  kp.init(sys);
  EXPECT_FALSE(sys.run(kWarmupCycles).all_halted)
      << "the kernel must still be running after the warm-up";

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const System::RunResult r = sys.run(1'000'000);
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  EXPECT_TRUE(r.all_halted);
  std::string err;
  EXPECT_TRUE(kp.check(sys, &err)) << err;
  return allocations;
}

struct Case {
  const char* topology;
  EngineMode mode;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.topology << " " << engine_mode_name(c.mode);
}

class SteadyStateAllocation : public ::testing::TestWithParam<Case> {};

TEST_P(SteadyStateAllocation, KernelStepsWithoutTouchingTheHeap) {
  const Case c = GetParam();
  EXPECT_EQ(allocations_after_warmup(c.topology, c.mode), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MiniMatmul, SteadyStateAllocation,
    ::testing::Values(Case{"Top1", EngineMode::kActive},
                      Case{"Top1", EngineMode::kDense},
                      Case{"Top4", EngineMode::kActive},
                      Case{"Top4", EngineMode::kDense},
                      Case{"TopH", EngineMode::kActive},
                      Case{"TopH", EngineMode::kDense},
                      Case{"TopH", EngineMode::kSharded}),
    [](const ::testing::TestParamInfo<Case>& tpinfo) {
      return std::string(tpinfo.param.topology) + "_" +
             engine_mode_name(tpinfo.param.mode);
    });

}  // namespace
}  // namespace mempool
