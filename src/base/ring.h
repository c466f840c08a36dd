// FIFO queue over one circular buffer.
//
// Replaces std::deque on the event path: a deque allocates a chunk every
// few dozen push_backs and frees one every few dozen pop_fronts, so a
// queue that merely cycles (a virtqueue, a socket buffer, a server's
// accept queue) keeps calling the allocator forever. A Ring's buffer
// grows by doubling when full and is never given back, so a queue that
// cycles below its high-water mark performs no allocation at all.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "base/assert.h"

namespace es2 {

template <typename T>
class Ring {
 public:
  /// Front-to-back traversal (range-for; snapshots walk queues in order).
  class const_iterator {
   public:
    const T& operator*() const { return (*ring_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class Ring;
    const_iterator(const Ring* ring, std::size_t index)
        : ring_(ring), index_(index) {}
    const Ring* ring_ = nullptr;
    std::size_t index_ = 0;
  };

  Ring() = default;
  /// Pre-sizes the buffer for `capacity` elements (rounded up to a power
  /// of two) so a queue with a known bound never grows.
  explicit Ring(std::size_t capacity) { reserve(capacity); }
  Ring(Ring&& other) noexcept { swap(other); }
  Ring& operator=(Ring&& other) noexcept {
    Ring(std::move(other)).swap(*this);
    return *this;
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    clear();
    if (slots_) std::allocator<T>().deallocate(slots_, capacity());
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    ES2_DCHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    ES2_DCHECK(size_ > 0);
    return slots_[head_];
  }
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask_];
  }

  void push_back(T value) {
    if (size_ == capacity()) reserve(size_ == 0 ? 8 : 2 * size_);
    std::construct_at(&slots_[(head_ + size_) & mask_], std::move(value));
    ++size_;
  }

  void pop_front() {
    ES2_DCHECK(size_ > 0);
    std::destroy_at(&slots_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Drops every element; the buffer is kept.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  std::size_t capacity() const { return slots_ ? mask_ + 1 : 0; }

  void reserve(std::size_t n) {
    std::size_t cap = 8;
    while (cap < n) cap *= 2;
    if (cap <= capacity()) return;
    std::allocator<T> alloc;
    T* grown = alloc.allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      std::construct_at(&grown[i], std::move((*this)[i]));
      std::destroy_at(&(*this)[i]);
    }
    if (slots_) alloc.deallocate(slots_, capacity());
    slots_ = grown;
    mask_ = cap - 1;
    head_ = 0;
  }

  void swap(Ring& other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(mask_, other.mask_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

  T* slots_ = nullptr;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace es2
