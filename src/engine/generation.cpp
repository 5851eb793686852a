#include "engine/generation.hpp"

#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "io/snapshot.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace probgraph::engine {

namespace {

/// Live-layer instruments, resolved once per process (the EngineMetrics
/// pattern in engine.cpp).
struct LiveMetrics {
  obs::Gauge* generation;
  obs::Counter* applied_inserts;
  obs::Counter* applied_deletes;
  obs::Histogram* reseal_seconds;
};

LiveMetrics& live_metrics() {
  static LiveMetrics m = [] {
    auto& reg = obs::Registry::global();
    LiveMetrics lm;
    lm.generation = &reg.gauge("probgraph_generation",
                               "Current serving generation (1 = base snapshot)");
    const char* applied_help = "Edge changes applied across all seals, by op";
    lm.applied_inserts = &reg.counter("probgraph_updates_applied_total",
                                      applied_help, {{"op", "insert"}});
    lm.applied_deletes = &reg.counter("probgraph_updates_applied_total",
                                      applied_help, {{"op", "delete"}});
    lm.reseal_seconds = &reg.histogram(
        "probgraph_reseal_latency_seconds",
        "update seal wall time: apply + save + load + swap + reader drain");
    return lm;
  }();
  return m;
}

}  // namespace

LiveEngine::LiveEngine(const std::string& snapshot_path, Options opts)
    : base_path_(snapshot_path) {
  auto gen = std::make_unique<Generation>(
      Generation{1, snapshot_path, /*owns_file=*/false,
                 Engine::from_snapshot(snapshot_path)});
  if (!opts.delta_log_path.empty()) delta_log_.emplace(opts.delta_log_path);
  current_.store(gen.release(), std::memory_order_seq_cst);
  live_metrics().generation->set(1.0);
}

LiveEngine::~LiveEngine() { retire(current_.load(std::memory_order_relaxed)); }

void LiveEngine::retire(Generation* gen) {
  if (gen == nullptr) return;
  const bool unlink = gen->owns_file;
  const std::string path = gen->path;
  delete gen;  // drops the Engine and its mapping before the unlink
  if (unlink) std::remove(path.c_str());
}

detail::ReaderSlot* LiveEngine::acquire_slot() {
  util::MutexLock lock(slots_mu_);
  for (auto& slot : slots_) {
    if (!slot->in_use) {
      slot->in_use = true;
      return slot.get();
    }
  }
  slots_.push_back(std::make_unique<detail::ReaderSlot>());
  slots_.back()->in_use = true;
  return slots_.back().get();
}

void LiveEngine::release_slot(detail::ReaderSlot* slot) {
  util::MutexLock lock(slots_mu_);
  slot->in_use = false;
}

LiveEngine::Reader::Reader(LiveEngine& live)
    : live_(live), slot_(live.acquire_slot()) {}

LiveEngine::Reader::~Reader() { live_.release_slot(slot_); }

LiveEngine::StageResult LiveEngine::stage(bool tombstone, std::span<const Edge> edges) {
  util::MutexLock lock(writer_mu_);
  std::vector<Edge>& staged = tombstone ? staged_deletes_ : staged_inserts_;
  staged.insert(staged.end(), edges.begin(), edges.end());
  pending_inserts_.store(staged_inserts_.size(), std::memory_order_relaxed);
  pending_deletes_.store(staged_deletes_.size(), std::memory_order_relaxed);
  return {edges.size(),
          {static_cast<std::uint64_t>(staged_inserts_.size()),
           static_cast<std::uint64_t>(staged_deletes_.size())}};
}

LiveEngine::SealResult LiveEngine::seal() {
  util::MutexLock lock(writer_mu_);
  if (staged_inserts_.empty() && staged_deletes_.empty()) {
    return {false, generation(), {}};
  }
  util::Timer timer;
  Generation* const old = current_.load(std::memory_order_seq_cst);
  const std::uint64_t next = old->number + 1;

  // Everything that can fail happens BEFORE the swap, with the staged
  // batch intact in the members: a throw leaves the old generation
  // serving and the changes staged for a retry.
  live::DeltaBatch batch{staged_inserts_, staged_deletes_};
  live::UpdatedSnapshot updated = live::apply_batch(*old->engine.snapshot(), batch);
  const std::string path = base_path_ + ".gen" + std::to_string(next);
  io::save_snapshot(path, updated.substrates);
  auto fresh = std::make_unique<Generation>(
      Generation{next, path, /*owns_file=*/true, Engine::from_snapshot(path)});
  if (delta_log_) delta_log_->append(batch);

  staged_inserts_.clear();
  staged_deletes_.clear();
  pending_inserts_.store(0, std::memory_order_relaxed);
  pending_deletes_.store(0, std::memory_order_relaxed);

  // The swap: publish the new generation, bump the epoch, then wait for
  // every reader slot to show an epoch past the retired generation (idle
  // slots pass vacuously). See the header for the seq_cst ordering
  // argument. The spin only waits out queries IN FLIGHT at the swap
  // instant; new queries land on the fresh generation immediately.
  current_.store(fresh.release(), std::memory_order_seq_cst);
  epoch_.store(next, std::memory_order_seq_cst);
  {
    util::MutexLock slots_lock(slots_mu_);
    for (const auto& slot : slots_) {
      while (slot->epoch.load(std::memory_order_seq_cst) <= old->number) {
        std::this_thread::yield();
      }
    }
  }
  retire(old);

  updated.stats.seconds = timer.seconds();
  LiveMetrics& lm = live_metrics();
  lm.generation->set(static_cast<double>(next));
  lm.applied_inserts->add(updated.stats.inserts_applied);
  lm.applied_deletes->add(updated.stats.deletes_applied);
  lm.reseal_seconds->observe(updated.stats.seconds);
  return {true, next, updated.stats};
}

namespace {

/// The live host: queries pin a generation (atomics only — the lock-free
/// hot path), live verbs stage/seal through the shared LiveEngine.
class LiveSessionHost final : public SessionHost {
 public:
  explicit LiveSessionHost(LiveEngine& live) : live_(live), reader_(live) {}

  QueryResult run(const Query& q) override {
    LiveEngine::Reader::Pin pin(reader_);
    return pin.engine().run(q);
  }

  std::vector<BatchItem> run_batch(std::span<const Query> queries) override {
    // ONE pin for the whole pipelined batch: every query in it sees the
    // same generation (a strictly stronger form of the whole-generation
    // guarantee). A batch never outgrows one pump() turn (the reactor's
    // per-turn fairness limit, or one read chunk for the blocking loop),
    // so a pipelining hog delays a seal by at most one turn's work.
    LiveEngine::Reader::Pin pin(reader_);
    return pin.engine().run_batch(queries);
  }

  std::string live(const LiveRequest& req) override {
    switch (req.op) {
      case LiveRequest::Op::kInsert:
      case LiveRequest::Op::kDelete: {
        const bool tombstone = req.op == LiveRequest::Op::kDelete;
        const auto r = live_.stage(tombstone, req.edges);
        std::string reply = "ok\tupdate\tstaged=";
        reply += tombstone ? "delete" : "insert";
        reply += "\tedges=" + std::to_string(r.staged);
        reply += "\tpending_inserts=" + std::to_string(r.pending.inserts);
        reply += "\tpending_deletes=" + std::to_string(r.pending.deletes);
        return reply;
      }
      case LiveRequest::Op::kSeal: {
        const auto r = live_.seal();
        if (!r.sealed) {
          return "ok\tupdate\tnoop\tgeneration=" + std::to_string(r.generation);
        }
        std::string reply = "ok\tupdate\tsealed";
        reply += "\tgeneration=" + std::to_string(r.generation);
        reply += "\tapplied_inserts=" + std::to_string(r.stats.inserts_applied);
        reply += "\tapplied_deletes=" + std::to_string(r.stats.deletes_applied);
        reply += "\tpatched=" + std::to_string(r.stats.vertices_patched);
        reply += "\trebuilt=" + std::to_string(r.stats.vertices_rebuilt);
        return reply;
      }
      case LiveRequest::Op::kEpoch: {
        const auto p = live_.pending();
        std::string reply = "ok\tepoch";
        reply += "\tgeneration=" + std::to_string(live_.generation());
        reply += "\tpending_inserts=" + std::to_string(p.inserts);
        reply += "\tpending_deletes=" + std::to_string(p.deletes);
        return reply;
      }
    }
    throw std::runtime_error("unhandled live request op");
  }

 private:
  LiveEngine& live_;
  LiveEngine::Reader reader_;
};

}  // namespace

std::unique_ptr<SessionHost> make_session_host(LiveEngine& live) {
  return std::make_unique<LiveSessionHost>(live);
}

}  // namespace probgraph::engine
