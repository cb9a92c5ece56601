// Recycling pool for per-round wire payloads.
//
// The round hot path used to make_shared a fresh GossipMsg/GossipAck/... per
// sender per round; payload and control block die within the same round once
// the network inboxes clear. PayloadPool keeps both alive instead: releasing
// the last shared_ptr reference returns the *object* (with its internal
// vector capacities intact) to a free list and the *control block* to a
// block cache, so a steady-state round performs no heap allocation for
// payload traffic.
//
// Handles are plain std::shared_ptr<T>, implicitly convertible to
// sim::PayloadPtr (shared_ptr<const Payload>), so auditors, observers and
// the network are untouched - a pooled payload is indistinguishable from a
// make_shared one. Lifetime rules (DESIGN.md section 9):
//   * the pool core is itself shared_ptr-owned and captured by every
//     handle's deleter, so handles may outlive the PayloadPool object;
//   * a pool is move-only: copying one would let two owners recycle into
//     one core, so the services that embed a pool cannot be cloned either;
//   * a recycled object is reset via T::reuse() before being handed out
//     (contents cleared, buffer capacity retained);
//   * pooling never affects behaviour - allocation identity is invisible to
//     the protocol, so traces are unchanged.
//
// Threading: acquire() stays single-threaded (a pool belongs to one process,
// which runs on exactly one thread per phase), but under sharded round
// execution (DESIGN.md section 12) the *last release* of a handle can happen
// on any engine worker — a payload sent to a process in another shard dies
// when that shard's inbox reference drops. The free lists are therefore
// guarded by a per-core spinlock: uncontended in the common case (same-shard
// release), never allocating, and recycling order is invisible to the
// protocol either way.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace congos {

template <typename T>
class PayloadPool {
 public:
  PayloadPool() : core_(std::make_shared<Core>()) {}
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;
  PayloadPool(PayloadPool&&) = default;
  PayloadPool& operator=(PayloadPool&&) = default;

  /// A cleared T, recycled when possible. The returned handle behaves like
  /// make_shared<T>(); when the last reference (anywhere) drops, object and
  /// control block come back to this pool.
  std::shared_ptr<T> acquire() {
    T* obj = nullptr;
    {
      SpinGuard guard(core_->lock);
      if (!core_->free_objects.empty()) {
        obj = core_->free_objects.back().release();
        core_->free_objects.pop_back();
      }
    }
    if (obj == nullptr) {
      obj = new T();
    } else {
      obj->reuse();
    }
    return std::shared_ptr<T>(obj, Recycler{core_}, BlockAllocator<T>{core_});
  }

  /// Objects currently idle in the free list (tests/benchmarks).
  std::size_t idle() const {
    SpinGuard guard(core_->lock);
    return core_->free_objects.size();
  }

 private:
  struct Core {
    mutable std::atomic_flag lock = ATOMIC_FLAG_INIT;
    std::vector<std::unique_ptr<T>> free_objects;
    std::vector<void*> free_blocks;  // recycled shared_ptr control blocks
    std::size_t block_size = 0;      // fixed per T; learned on first release
    ~Core() {
      for (void* b : free_blocks) ::operator delete(b);
    }
  };

  /// Scoped holder of a Core's spinlock. Critical sections are a few vector
  /// operations long and contention is rare (cross-shard payload death), so
  /// a test-and-set spin beats a mutex and — unlike one — cannot allocate.
  class SpinGuard {
   public:
    explicit SpinGuard(std::atomic_flag& f) : flag_(f) {
      while (flag_.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~SpinGuard() { flag_.clear(std::memory_order_release); }
    SpinGuard(const SpinGuard&) = delete;
    SpinGuard& operator=(const SpinGuard&) = delete;

   private:
    std::atomic_flag& flag_;
  };

  /// Custom deleter: parks the object instead of destroying it.
  struct Recycler {
    std::shared_ptr<Core> core;
    void operator()(T* obj) const {
      SpinGuard guard(core->lock);
      core->free_objects.emplace_back(obj);
    }
  };

  /// Allocator handed to shared_ptr for its control block. Every control
  /// block for a given T has the same size, so a simple same-size free list
  /// suffices. The standard library deallocates through a *copy* of this
  /// allocator taken before the block is destroyed, so `core` is always
  /// alive at deallocation time.
  template <typename U>
  struct BlockAllocator {
    using value_type = U;

    explicit BlockAllocator(std::shared_ptr<Core> c) : core(std::move(c)) {}
    template <typename W>
    BlockAllocator(const BlockAllocator<W>& other) : core(other.core) {}

    U* allocate(std::size_t n) {
      const std::size_t bytes = n * sizeof(U);
      if (n == 1) {
        SpinGuard guard(core->lock);
        if (bytes == core->block_size && !core->free_blocks.empty()) {
          void* b = core->free_blocks.back();
          core->free_blocks.pop_back();
          return static_cast<U*>(b);
        }
      }
      return static_cast<U*>(::operator new(bytes));
    }

    void deallocate(U* p, std::size_t n) {
      const std::size_t bytes = n * sizeof(U);
      if (n == 1) {
        SpinGuard guard(core->lock);
        if (core->block_size == 0 || core->block_size == bytes) {
          core->block_size = bytes;
          core->free_blocks.push_back(p);
          return;
        }
      }
      ::operator delete(p);
    }

    std::shared_ptr<Core> core;
  };

  std::shared_ptr<Core> core_;
};

}  // namespace congos
