// Generations: RCU-style epoch-swap serving over a changing graph.
//
// A LiveEngine turns the static snapshot server into a live one. It holds
// the CURRENT generation — a sealed .pgs snapshot plus the Engine serving
// it — and lets any session stage edge inserts/tombstones (the `update`
// protocol verbs) and seal them: the staged batch is applied to a shadow
// copy of the substrate portfolio (src/live/apply.hpp — incremental
// sketch patches, cold-identical by construction), saved as a new .pgs
// generation file, loaded into a fresh Engine, and swapped in atomically.
// Queries racing the swap see either the old generation or the new one,
// whole; never a partial batch.
//
// The swap protocol (quiescent-state-based reclamation):
//
//   * every session registers one cache-line-aligned ReaderSlot (a mutex
//     is taken ONCE at session start/end, never per query);
//   * per query, the reader publishes the epoch it observed into its slot
//     (one seq_cst load + store), loads the current generation pointer,
//     runs the query, and marks the slot idle — the hot path is entirely
//     atomic loads/stores, no mutex, no registry lock, preserving the
//     Engine thread-safety contract (engine.hpp);
//   * the writer (seal) installs the new generation pointer, bumps the
//     global epoch, then waits until every slot shows an epoch NEWER than
//     the retired generation (idle slots pass vacuously). Under the
//     seq_cst total order, a reader that obtained the OLD pointer
//     necessarily published an old epoch BEFORE the writer's scan read
//     it, so the writer waits for that reader to drain; once the scan
//     passes, no reader can hold the old Engine and it is destroyed, its
//     generation file unlinked.
//
// Writers are serialized by a writer mutex; any session may write
// (admission is the server-level --live flag, not per-session). Staged
// changes are process-wide, not per-session: `epoch` reports them, and a
// seal from any session applies them all.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "graph/builder.hpp"
#include "live/apply.hpp"
#include "live/delta.hpp"
#include "util/sync.hpp"

namespace probgraph::engine {

/// One sealed serving state: a snapshot generation and the Engine over it.
struct Generation {
  std::uint64_t number = 1;  ///< 1 = the base snapshot; +1 per seal
  std::string path;          ///< the .pgs file this generation serves
  bool owns_file = false;    ///< sealed generations unlink their file at retire
  Engine engine;
};

namespace detail {

/// Idle marker: no query in flight, every swap passes this slot.
inline constexpr std::uint64_t kIdleEpoch = ~std::uint64_t{0};

/// One session's read-side state, cache-line-aligned so concurrent
/// sessions' pins never share a line.
struct alignas(64) ReaderSlot {
  std::atomic<std::uint64_t> epoch{kIdleEpoch};
  // Guarded by LiveEngine::slots_mu_ — not expressible as a GUARDED_BY
  // here (the capability lives on the owning LiveEngine, and the analysis
  // needs an object expression in this scope); acquire_slot/release_slot
  // are the only accessors and both REQUIRE nothing but take slots_mu_.
  bool in_use = false;
};

}  // namespace detail

class LiveEngine {
 public:
  struct Options {
    /// When non-empty, every sealed batch is appended to this .pgd delta
    /// log (live/delta.hpp) before the swap.
    std::string delta_log_path;
  };

  /// Serve `snapshot_path` as generation 1. Throws what Engine::from_snapshot
  /// and DeltaLogWriter throw.
  explicit LiveEngine(const std::string& snapshot_path, Options opts = {});

  /// Destroys the current generation (unlinking its file if sealed here).
  /// NOT thread-safe: join every session first, like Engine.
  ~LiveEngine();

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// Current generation number (atomic; any thread).
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }

  struct Pending {
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
  };
  /// Staged-but-unsealed change counts (atomic; any thread).
  [[nodiscard]] Pending pending() const noexcept {
    return {pending_inserts_.load(std::memory_order_relaxed),
            pending_deletes_.load(std::memory_order_relaxed)};
  }

  struct StageResult {
    std::size_t staged = 0;
    Pending pending;
  };
  /// Stage edges for the next seal (tombstone = deletions). Thread-safe;
  /// serialized with seals by the writer mutex.
  StageResult stage(bool tombstone, std::span<const Edge> edges)
      EXCLUDES(writer_mu_);

  struct SealResult {
    bool sealed = false;  ///< false: nothing was staged (no-op)
    std::uint64_t generation = 0;
    live::ApplyStats stats;
  };
  /// Apply everything staged as a new generation and swap it in (the
  /// epoch-swap protocol above). Thread-safe; concurrent seals serialize.
  /// On failure (I/O, bad batch) the staged changes are retained and the
  /// current generation keeps serving. Records probgraph_generation,
  /// probgraph_updates_applied_total, and probgraph_reseal_latency_seconds.
  SealResult seal() EXCLUDES(writer_mu_, slots_mu_);

  /// A registered reader session. Construction/destruction take the slot
  /// mutex once; Pin is the per-query lock-free hot path.
  class Reader {
   public:
    explicit Reader(LiveEngine& live);
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// Pins the current generation for one query: atomics only. The
    /// BEGIN/END markers fence a tools/lint/check_layout.py region — no
    /// allocation, locking, or container growth may appear inside.
    // PROBGRAPH_HOT_PATH_BEGIN(live-pin)
    class Pin {
     public:
      explicit Pin(Reader& reader) noexcept : reader_(reader) {
        LiveEngine& live = reader.live_;
        const std::uint64_t e = live.epoch_.load(std::memory_order_seq_cst);
        reader.slot_->epoch.store(e, std::memory_order_seq_cst);
        gen_ = live.current_.load(std::memory_order_seq_cst);
      }
      ~Pin() {
        reader_.slot_->epoch.store(detail::kIdleEpoch, std::memory_order_seq_cst);
      }
      Pin(const Pin&) = delete;
      Pin& operator=(const Pin&) = delete;

      [[nodiscard]] Engine& engine() const noexcept { return gen_->engine; }
      [[nodiscard]] std::uint64_t generation() const noexcept { return gen_->number; }

     private:
      Reader& reader_;
      Generation* gen_;
    };
    // PROBGRAPH_HOT_PATH_END(live-pin)

   private:
    friend class Pin;
    LiveEngine& live_;
    detail::ReaderSlot* slot_;
  };

  /// Startup-only peek at the serving Engine (the serve banner). Not safe
  /// concurrently with seal() — pin through a Reader instead.
  [[nodiscard]] const Engine& current_engine_unsynchronized() const noexcept {
    return current_.load(std::memory_order_relaxed)->engine;
  }

 private:
  friend class Reader;

  detail::ReaderSlot* acquire_slot() EXCLUDES(slots_mu_);
  void release_slot(detail::ReaderSlot* slot) EXCLUDES(slots_mu_);
  static void retire(Generation* gen);

  std::atomic<Generation*> current_{nullptr};
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> pending_inserts_{0};
  std::atomic<std::uint64_t> pending_deletes_{0};

  // Lock order: writer_mu_ before slots_mu_ (seal() scans the slots for
  // the reader drain while serialized against other writers). The pin hot
  // path takes NEITHER — it is atomics only, and the annotations keep it
  // that way: nothing in Pin can touch a GUARDED_BY field.
  util::Mutex writer_mu_;  // serializes stage() bookkeeping and seal()
  std::vector<Edge> staged_inserts_ GUARDED_BY(writer_mu_);
  std::vector<Edge> staged_deletes_ GUARDED_BY(writer_mu_);

  util::Mutex slots_mu_;  // guards slots_ membership, never the pin path
  std::vector<std::unique_ptr<detail::ReaderSlot>> slots_ GUARDED_BY(slots_mu_);

  std::string base_path_;
  std::optional<live::DeltaLogWriter> delta_log_ GUARDED_BY(writer_mu_);
};

/// A session host over a LiveEngine: queries pin a generation per request
/// (per batch for pipelined batches) through a registered Reader,
/// update/epoch verbs go to the staging/seal API. One host per session —
/// the net:: transports create these through the same factory shape as
/// the static make_session_host(Engine&) (protocol.hpp).
[[nodiscard]] std::unique_ptr<SessionHost> make_session_host(LiveEngine& live);

}  // namespace probgraph::engine
