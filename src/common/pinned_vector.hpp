#pragma once
// Fixed-capacity contiguous emplace-only container for non-movable types.

#include <cstddef>
#include <new>
#include <utility>

#include "common/check.hpp"

namespace mempool {

/// std::vector cannot hold engine components: they pin their addresses at
/// registration (the engine and wake plumbing keep raw pointers), so any
/// reallocation or move is a use-after-free. std::deque keeps addresses
/// stable but scatters elements across map nodes. PinnedVector reserves its
/// full capacity once on the heap, then only ever constructs in place.
/// Elements are destroyed in reverse construction order.
template <typename T>
class PinnedVector {
 public:
  PinnedVector() = default;
  PinnedVector(const PinnedVector&) = delete;
  PinnedVector& operator=(const PinnedVector&) = delete;

  PinnedVector(PinnedVector&& other) noexcept { steal(other); }
  PinnedVector& operator=(PinnedVector&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  ~PinnedVector() { destroy(); }

  /// Allocate storage for exactly @p capacity elements. Must be called once,
  /// before any emplace_back; capacity 0 is a no-op.
  void reserve_exact(std::size_t capacity) {
    MEMPOOL_CHECK_MSG(data_ == nullptr && size_ == 0,
                      "PinnedVector::reserve_exact called twice");
    if (capacity == 0) return;
    data_ = static_cast<T*>(::operator new(sizeof(T) * capacity,
                                           std::align_val_t(alignof(T))));
    capacity_ = capacity;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    MEMPOOL_CHECK_MSG(size_ < capacity_,
                      "PinnedVector overflow: capacity " << capacity_);
    T* obj = new (data_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *obj;
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

 private:
  void destroy() {
    for (std::size_t i = size_; i > 0; --i) data_[i - 1].~T();
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t(alignof(T)));
    }
    data_ = nullptr;
    size_ = capacity_ = 0;
  }

  void steal(PinnedVector& other) {
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace mempool
