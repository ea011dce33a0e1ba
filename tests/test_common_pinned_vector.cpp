// PinnedVector (common/pinned_vector.hpp): the fixed-capacity container for
// non-movable types.

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "common/pinned_vector.hpp"

namespace mempool {
namespace {

struct DtorOrder {
  explicit DtorOrder(int id, std::vector<int>* log) : id_(id), log_(log) {}
  ~DtorOrder() { log_->push_back(id_); }
  int id_;
  std::vector<int>* log_;
};

// A deliberately non-movable type, like the engine components PinnedVector
// exists to hold.
struct Pinned {
  explicit Pinned(int v) : value(v), self(this) {}
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;
  int value;
  Pinned* self;  // would dangle if the element ever moved
};

TEST(PinnedVector, EmplacesNonMovableTypesAtStableAddresses) {
  PinnedVector<Pinned> pv;
  pv.reserve_exact(8);
  std::vector<Pinned*> addrs;
  for (int i = 0; i < 8; ++i) addrs.push_back(&pv.emplace_back(i));
  ASSERT_EQ(pv.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(pv[static_cast<std::size_t>(i)].value, i);
    EXPECT_EQ(&pv[static_cast<std::size_t>(i)], addrs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(pv[static_cast<std::size_t>(i)].self, addrs[static_cast<std::size_t>(i)]);
  }
  // Elements are contiguous, unlike a deque.
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(addrs[static_cast<std::size_t>(i)],
              addrs[static_cast<std::size_t>(i - 1)] + 1);
  }
}

TEST(PinnedVector, OverflowAndDoubleReserveAreErrors) {
  PinnedVector<int> pv;
  pv.reserve_exact(2);
  pv.emplace_back(1);
  pv.emplace_back(2);
  EXPECT_THROW(pv.emplace_back(3), CheckError);
  EXPECT_THROW(pv.reserve_exact(4), CheckError);
}

TEST(PinnedVector, DestroysElementsInReverseOrder) {
  std::vector<int> log;
  {
    PinnedVector<DtorOrder> pv;
    pv.reserve_exact(3);
    pv.emplace_back(1, &log);
    pv.emplace_back(2, &log);
    pv.emplace_back(3, &log);
  }
  EXPECT_EQ(log, (std::vector<int>{3, 2, 1}));
}

}  // namespace
}  // namespace mempool
