// Reusable pool of fully built virtualization systems (the zero-rebuild
// replication engine, docs/PERFORMANCE.md). Building a system allocates
// every place, gate closure and the simulator's enabling-dependency
// index. The pool amortizes that setup: each executor lane checks out
// one built slot, resets it (Simulator::reset(seed) +
// VirtualSystem::reset()) and runs, so `--jobs N` builds exactly N
// systems no matter how many replications the stopping rule takes. It
// is the only way exp::run_point runs a replication. Pooled results do
// not depend on which slot serves which replication because reset and
// rebind are equivalent to a fresh build, which is test-enforced where
// it is owned: sched::check_scheduler_contract's reset drive and the vm
// layer's reset/rebind-vs-build_system identity tests
// (tests/vm/system_reset_test.cpp). tests/exp/pool_test.cpp checks that
// pooled runs are invariant under `jobs` and pool history.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "san/simulator.hpp"
#include "vm/config.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::exp {

/// Thread-safe free list of built (system, simulator, metric-binding)
/// slots for one system configuration. One pool may serve several
/// run_point calls (compare_points shares one across the algorithms of a
/// comparison); the per-call `stamp` tells a checkout whether the slot
/// is already bound to the current run's scheduler and metric set or
/// needs a cheap rebind first.
class SystemPool {
 public:
  struct Slot {
    /// Null in a never-built slot: the checkout holder builds into it.
    std::unique_ptr<vm::VirtualSystem> system;
    /// Null until a run binds the slot (set_model + reward wiring).
    std::unique_ptr<san::Simulator> simulator;
    /// The binding run's metric bindings (owned by exp::run_point's
    /// translation unit; opaque here).
    std::shared_ptr<void> bindings;
    /// next_stamp() value of the run the slot is currently bound to
    /// (0 = unbound, e.g. a lint-seeded system).
    std::uint64_t stamp = 0;
  };

  /// RAII checkout: returns the slot to the pool's free list on
  /// destruction, whatever state the holder left it in.
  class Checkout {
   public:
    Checkout() = default;
    Checkout(Checkout&& other) noexcept
        : pool_(other.pool_), slot_(std::move(other.slot_)) {
      other.pool_ = nullptr;
    }
    Checkout& operator=(Checkout&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        slot_ = std::move(other.slot_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    Checkout(const Checkout&) = delete;
    Checkout& operator=(const Checkout&) = delete;
    ~Checkout() { release(); }

    Slot& slot() { return *slot_; }
    explicit operator bool() const noexcept { return slot_ != nullptr; }

   private:
    friend class SystemPool;
    Checkout(SystemPool* pool, std::unique_ptr<Slot> slot)
        : pool_(pool), slot_(std::move(slot)) {}
    void release();

    SystemPool* pool_ = nullptr;
    std::unique_ptr<Slot> slot_;
  };

  explicit SystemPool(const vm::SystemConfig& config)
      : fingerprint_(fingerprint_of(config)) {}

  /// Structural identity of the system configuration the pool serves.
  /// run_point refuses an external pool whose fingerprint differs from
  /// its spec's — a pooled system is only reusable for the exact same
  /// model build.
  const std::string& fingerprint() const noexcept { return fingerprint_; }

  /// Check out a slot: a built one when the free list has any (counted
  /// as a reuse), else a fresh empty slot (counted as a build — the
  /// holder is expected to build into it). Because the replication
  /// executor runs at most `jobs` lanes concurrently, at most `jobs`
  /// slots ever exist per pool.
  Checkout acquire();

  /// Seed the pool with an externally built system (the lint fail-fast
  /// path's build, which would otherwise be thrown away). Counted as a
  /// build; the first checkout that picks it up counts as a reuse.
  void add_built(std::unique_ptr<vm::VirtualSystem> system);

  /// Fresh run identity for one run_point call (never 0).
  std::uint64_t next_stamp();

  /// build_system calls made on behalf of the pool (including lint
  /// seeds) / checkouts that skipped one. Exported by run_point as
  /// "executor.pool_builds" / "executor.pool_reuses".
  std::uint64_t builds() const;
  std::uint64_t reuses() const;

  /// Deterministic serialization of everything build_system consumes
  /// (PCPU count, timeslice, per-VM workload distributions, sync and
  /// spinlock parameters, workload traces).
  static std::string fingerprint_of(const vm::SystemConfig& config);

 private:
  void release(std::unique_ptr<Slot> slot);

  std::string fingerprint_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Slot>> free_;
  std::uint64_t stamp_counter_ = 0;
  std::uint64_t builds_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace vcpusim::exp
