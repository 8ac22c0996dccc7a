// RCU-style single-writer snapshot publication with lock-free readers.
//
// The admission service publishes one immutable PublishedEpoch at a time;
// reader threads must resolve "the current epoch" on every decision without
// taking a lock, while the writer must eventually reclaim superseded epochs
// that no reader still holds. RcuPtr does both with hazard pointers:
//
//   The read path is two relaxed/acquire loads plus one seq_cst store into
//   the reader's own hazard slot (the classic hazard-pointer protocol:
//   store the candidate, re-check the cell, retry on a lost race with a
//   concurrent publish). Reclamation is writer-side: every publish retires
//   the previous epoch into a keepalive list and frees any retired epoch no
//   slot still points at. Readers never touch a shared reference count, so
//   the read path scales with zero write sharing beyond the slot itself.
//
// A refcounted shared_ptr pin (copy the current shared_ptr under a
// spinlock) was measured against this scheme and removed: at 2 readers it
// decided at 44-83% of the hazard rate with 2-4x the p99 (docs/SERVING.md
// §3).
//
// Guarantees, pinned by the race tests: a Pin keeps its epoch alive and
// bit-stable for the Pin's whole lifetime, no matter how many publishes
// happen meanwhile, and a published epoch is reclaimed only after every
// slot that could reference it has moved on. The slot pool is fixed, so
// concurrent readers are capped at max_slots.
//
// Single writer (Publish/~RcuPtr), many readers. Readers must release
// their Pins and Slots before the RcuPtr is destroyed.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/dcheck.h"

namespace rejecto::serve {

template <typename T>
class RcuPtr {
 public:
  // One per reader thread, claimed from a fixed pool so the writer's
  // reclamation scan is a bounded array walk.
  struct Slot {
    std::atomic<const T*> hazard{nullptr};
    std::atomic<bool> in_use{false};
  };

  // An RAII pin on one published value: dereferenceable and immutable for
  // the Pin's lifetime. Movable, not copyable.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& o) noexcept : raw_(o.raw_), slot_(o.slot_) {
      o.raw_ = nullptr;
      o.slot_ = nullptr;
    }
    Pin& operator=(Pin&& o) noexcept {
      if (this != &o) {
        Release();
        raw_ = o.raw_;
        slot_ = o.slot_;
        o.raw_ = nullptr;
        o.slot_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    const T* get() const noexcept { return raw_; }
    const T& operator*() const noexcept { return *raw_; }
    const T* operator->() const noexcept { return raw_; }
    explicit operator bool() const noexcept { return raw_ != nullptr; }

   private:
    friend class RcuPtr;
    void Release() noexcept {
      if (slot_ != nullptr) {
        slot_->hazard.store(nullptr, std::memory_order_release);
        slot_ = nullptr;
      }
      raw_ = nullptr;
    }

    const T* raw_ = nullptr;
    Slot* slot_ = nullptr;
  };

  explicit RcuPtr(std::size_t max_slots = 64) : slots_(max_slots) {}

  ~RcuPtr() {
    // Readers must be gone: a live Pin or Slot past this point is a
    // use-after-free in the caller.
    for (const Slot& s : slots_) {
      (void)s;  // the checks compile away under NDEBUG
      REJECTO_DCHECK(!s.in_use.load(std::memory_order_acquire),
                     "RcuPtr destroyed with a live reader slot");
      REJECTO_DCHECK(s.hazard.load(std::memory_order_acquire) == nullptr,
                     "RcuPtr destroyed with a live Pin");
    }
  }

  RcuPtr(const RcuPtr&) = delete;
  RcuPtr& operator=(const RcuPtr&) = delete;

  // Writer: swaps the published value and reclaims retired values no slot
  // still references. `next` must be non-null.
  void Publish(std::shared_ptr<const T> next) {
    if (next == nullptr) {
      throw std::invalid_argument("RcuPtr::Publish: null value");
    }
    const T* raw = next.get();
    if (current_ != nullptr) retired_.push_back(std::move(current_));
    current_ = std::move(next);
    // seq_cst store so a reader's (hazard store; re-check load) pair and
    // this (swap; scan) pair cannot both miss each other.
    current_raw_.store(raw, std::memory_order_seq_cst);
    Reclaim();
  }

  // Reader: pins the current value through the caller's slot. Returns an
  // empty Pin only before the first Publish.
  Pin Acquire(Slot* slot) {
    Pin pin;
    REJECTO_DCHECK(slot != nullptr, "RcuPtr::Acquire: null slot");
    const T* p = current_raw_.load(std::memory_order_acquire);
    while (p != nullptr) {
      // Classic hazard handshake: announce p, then confirm it is still
      // current. The seq_cst store/load pair orders this against the
      // writer's swap+scan, so either the writer sees our announcement or
      // we see its new pointer and retry.
      slot->hazard.store(p, std::memory_order_seq_cst);
      const T* check = current_raw_.load(std::memory_order_seq_cst);
      if (check == p) break;
      p = check;
    }
    if (p == nullptr) {
      slot->hazard.store(nullptr, std::memory_order_release);
      return pin;
    }
    pin.raw_ = p;
    pin.slot_ = slot;
    return pin;
  }

  // Claims a free slot for a reader thread; null when all are taken.
  Slot* AcquireSlot() {
    for (Slot& s : slots_) {
      bool expected = false;
      if (s.in_use.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
        return &s;
      }
    }
    return nullptr;
  }

  void ReleaseSlot(Slot* slot) noexcept {
    if (slot == nullptr) return;
    REJECTO_DCHECK(slot->hazard.load(std::memory_order_acquire) == nullptr,
                   "RcuPtr::ReleaseSlot: slot still holds a Pin");
    slot->in_use.store(false, std::memory_order_release);
  }

  // Retired-but-unreclaimed values.
  std::size_t RetiredCount() const noexcept { return retired_.size(); }

 private:
  // Drops every retired value no hazard slot references. Writer-only.
  void Reclaim() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < retired_.size(); ++i) {
      const T* raw = retired_[i].get();
      bool pinned = false;
      for (const Slot& s : slots_) {
        if (s.hazard.load(std::memory_order_seq_cst) == raw) {
          pinned = true;
          break;
        }
      }
      if (pinned) {
        retired_[kept++] = std::move(retired_[i]);
      } else {
        retired_[i].reset();
      }
    }
    retired_.resize(kept);
  }

  std::vector<Slot> slots_;

  // The lock-free cell + writer-side keepalives.
  std::atomic<const T*> current_raw_{nullptr};
  std::shared_ptr<const T> current_;              // writer-owned
  std::vector<std::shared_ptr<const T>> retired_;  // writer-owned
};

}  // namespace rejecto::serve
