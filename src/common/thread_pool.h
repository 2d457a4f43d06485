// Shared fork-join worker pool for the library's parallel hot paths.
//
// One ThreadPool is created per top-level operation (e.g. per RunTiGreedy
// invocation) and borrowed by every component that can use parallelism:
// RR-set sampling (rrset::ParallelSampler), the KPT pilot
// (rrset::SampleSizer), the inverted-index build (rrset::RrStore), coverage
// adoption (rrset::RrCollection) and the cold tier's chunk reads
// (common::AsyncFileReader). Replacing the previous thread-per-batch
// spawning, the pool's threads are started once and reused, so even the
// driver's many small sample-growth batches pay no thread construction cost.
//
// Execution model — fork-join with caller participation:
//   - Run(n, fn) executes fn(0..n-1) and blocks until all calls returned.
//     The calling thread claims tasks too, so a pool of concurrency c uses
//     c - 1 background workers and never idles the caller.
//   - Launch(n, fn) posts the same kind of batch WITHOUT blocking and
//     returns a TaskGroup handle; background workers start on it
//     immediately while the caller keeps going (the cold-tier read
//     overlap). TaskGroup::Wait() joins the batch: the caller claims any
//     still-unclaimed tasks, blocks until in-flight ones finish, and
//     rethrows the batch's first exception. On a pool with no background
//     workers (concurrency 1) Launch defers everything to Wait, which runs
//     the tasks inline — results are identical, only overlap is lost.
//   - Run/Wait are reentrant: a task may call Run on the same pool (the
//     ad-init tasks in RunTiGreedy do exactly that when they sample). The
//     nested caller claims its own batch's tasks itself; idle workers help.
//     This cannot deadlock: a thread only blocks when every task of its
//     batch is claimed, and a claimed task is actively executing on some
//     thread — the chain of waiters bottoms out at a running leaf task.
//   - Run may also be called from several external threads concurrently;
//     batches share the worker set FIFO.
//
// Exception marshaling: a task that throws does not terminate the process.
// The first exception of a batch is captured, the batch's unclaimed tasks
// are cancelled (already-running ones finish), and the exception is
// rethrown on the thread that joins the batch — Run's caller after its
// fork-join barrier, or TaskGroup::Wait's caller. Realistically this is
// std::bad_alloc during RR sampling; the TI driver converts it to a Status.
//
// Determinism: the pool never influences *what* is computed, only *where*.
// All callers write results into pre-assigned disjoint slots keyed by task
// index, so outputs are bit-identical at any concurrency (see
// rrset/parallel_sampler.h for the per-substream contract).

#ifndef ISA_COMMON_THREAD_POOL_H_
#define ISA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace isa {

class ThreadPool {
  struct Batch;  // one Run/Launch call's state; definition below (private)

 public:
  /// `concurrency` = total threads that execute tasks during Run, including
  /// the caller; the pool spawns `concurrency - 1` background workers.
  /// 0 = hardware concurrency; 1 = no workers, Run executes inline (the
  /// legacy serial path, bit-identical results either way).
  explicit ThreadPool(uint32_t concurrency = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t concurrency() const { return concurrency_; }

  /// Runs fn(i) for every i in [0, n), in unspecified order across the
  /// caller and the workers; returns when all n calls have completed.
  /// If a task throws, the batch's unclaimed tasks are cancelled and the
  /// first exception is rethrown here, after the barrier. Reentrant (see
  /// file comment).
  void Run(uint64_t n, const std::function<void(uint64_t)>& fn);

  /// Move-only handle to a batch posted with Launch.
  class TaskGroup {
   public:
    TaskGroup() = default;
    TaskGroup(TaskGroup&& other) noexcept;
    TaskGroup& operator=(TaskGroup&& other) noexcept;
    ~TaskGroup();  // joins the batch; a task exception is discarded —
                   // call Wait() to observe it

    /// Claims the batch's remaining tasks, blocks until every task has
    /// finished, then rethrows the batch's first exception (if any).
    /// Idempotent: after Wait returns (or throws) the handle is empty and
    /// further Waits are no-ops.
    void Wait();

    /// True while the handle refers to an unjoined batch.
    bool valid() const { return pool_ != nullptr; }

   private:
    friend class ThreadPool;
    TaskGroup(ThreadPool* pool, std::shared_ptr<Batch> batch)
        : pool_(pool), batch_(std::move(batch)) {}

    ThreadPool* pool_ = nullptr;
    std::shared_ptr<Batch> batch_;
  };

  /// Posts fn(0..n-1) without waiting. Background workers begin executing
  /// immediately; the returned handle joins the batch. The closure is moved
  /// into the batch and outlives the caller's scope, but anything it
  /// captures by reference must stay alive until Wait (or the handle's
  /// destructor) returns.
  TaskGroup Launch(uint64_t n, std::function<void(uint64_t)> fn);

  /// Caps a worker-count request to this pool's concurrency, with at least
  /// `min_items_per_worker` items each (down to 1 worker for tiny inputs).
  uint32_t WorkersFor(uint64_t items, uint64_t min_items_per_worker) const;

 private:
  // Guarded by mu_ (counters are small; tasks are coarse, so the lock is
  // uncontended in practice).
  struct Batch {
    std::function<void(uint64_t)> owned_fn;  // Launch keeps the closure alive
    const std::function<void(uint64_t)>* fn = nullptr;
    uint64_t count = 0;
    uint64_t next = 0;   // first unclaimed index
    uint64_t done = 0;   // completed + cancelled calls
    std::exception_ptr error;  // first task exception; cancels the rest
  };

  void WorkerLoop();
  // Claims and runs tasks of `batch` until none are unclaimed (caller-
  // participation half of the fork-join).
  void Participate(const std::shared_ptr<Batch>& batch);
  // Blocks until every task of `batch` completed, then rethrows its error.
  void Join(const std::shared_ptr<Batch>& batch, bool rethrow);
  // Post-task bookkeeping under mu_: records `err` (first one wins,
  // cancelling unclaimed tasks), counts the task done, and wakes joiners.
  void FinishTask(const std::shared_ptr<Batch>& batch, std::exception_ptr err);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: tasks available or stopping
  std::condition_variable done_cv_;  // joiners: some batch completed
  std::deque<std::shared_ptr<Batch>> batches_;
  bool stop_ = false;
  uint32_t concurrency_;
  std::vector<std::thread> workers_;
};

}  // namespace isa

#endif  // ISA_COMMON_THREAD_POOL_H_
