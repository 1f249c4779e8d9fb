#include "nvm/io_scheduler.hpp"

#include <algorithm>

#include "nvm/chunk_cache.hpp"
#include "util/contracts.hpp"

namespace sembfs {

IoScheduler::IoScheduler(std::size_t queue_depth, IoSchedulerConfig config)
    : config_(config),
      obs_queue_wait_us_(
          &obs::metrics().histogram("io_sched.queue_wait_us")),
      obs_service_us_(&obs::metrics().histogram("io_sched.service_us")),
      obs_completed_(&obs::metrics().counter("io_sched.completed")),
      obs_retries_(&obs::metrics().counter("io_sched.retries")),
      obs_failures_(&obs::metrics().counter("io_sched.failures")),
      obs_deadline_expired_(
          &obs::metrics().counter("io_sched.deadline_expired")),
      obs_budget_rejected_(
          &obs::metrics().counter("io_sched.budget_rejected")) {
  SEMBFS_EXPECTS(queue_depth >= 1);
  SEMBFS_EXPECTS(config_.retry.max_attempts >= 1);
  grow(queue_depth);
}

std::size_t IoScheduler::queue_depth() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void IoScheduler::grow(std::size_t queue_depth) {
  SEMBFS_EXPECTS(queue_depth <= 1024);
  std::lock_guard<std::mutex> lock(mutex_);
  SEMBFS_EXPECTS(!shutdown_);
  while (workers_.size() < queue_depth)
    workers_.emplace_back([this] { worker_loop(); });
}

IoScheduler::~IoScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Workers drain the queue before exiting, so no promise is left dangling.
  SEMBFS_ASSERT(queue_.empty() && in_service_ == 0);
}

IoScheduler::Job IoScheduler::make_job(NvmBackingFile& file,
                                       std::uint64_t offset,
                                       std::span<std::byte> dst,
                                       ChunkCache* cache,
                                       std::uint64_t max_miss_request_bytes,
                                       const RetryPolicy* retry) const {
  Job job;
  job.file = &file;
  job.offset = offset;
  job.dst = dst;
  job.cache = cache;
  job.max_miss_request_bytes = max_miss_request_bytes;
  job.retry = retry != nullptr ? *retry : config_.retry;
  SEMBFS_EXPECTS(job.retry.max_attempts >= 1);
  job.submitted_at = std::chrono::steady_clock::now();
  return job;
}

std::future<IoResult> IoScheduler::submit_read(
    NvmBackingFile& file, std::uint64_t offset, std::span<std::byte> dst,
    ChunkCache* cache, std::uint64_t max_miss_request_bytes,
    const RetryPolicy* retry) {
  Job job =
      make_job(file, offset, dst, cache, max_miss_request_bytes, retry);
  std::future<IoResult> future = job.promise.get_future();
  enqueue(std::move(job));
  return future;
}

void IoScheduler::submit_read(
    NvmBackingFile& file, std::uint64_t offset, std::span<std::byte> dst,
    std::function<void(const IoResult&)> done, ChunkCache* cache,
    std::uint64_t max_miss_request_bytes, const RetryPolicy* retry) {
  SEMBFS_EXPECTS(done != nullptr);
  Job job =
      make_job(file, offset, dst, cache, max_miss_request_bytes, retry);
  job.callback = std::move(done);
  enqueue(std::move(job));
}

void IoScheduler::enqueue(Job job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SEMBFS_EXPECTS(!shutdown_);
    queue_.push_back(std::move(job));
    ++submitted_;
    peak_pending_ = std::max(peak_pending_, queue_.size() + in_service_);
  }
  work_cv_.notify_one();
}

std::uint64_t IoScheduler::execute(Job& job) {
  if (job.cache != nullptr)
    return job.cache->read(*job.file, job.offset, job.dst,
                           job.max_miss_request_bytes);
  // Direct reads honor the same request-size cap the cache path applies to
  // miss runs: a range longer than max_miss_request_bytes (an oversize hub
  // adjacency the range merger could not split) is issued in capped
  // slices, never as one unbounded device request. 0 = uncapped.
  const std::size_t cap = job.max_miss_request_bytes > 0
                              ? job.max_miss_request_bytes
                              : job.dst.size();
  std::uint64_t requests = 0;
  std::size_t done = 0;
  while (done < job.dst.size()) {
    const std::size_t len = std::min(cap, job.dst.size() - done);
    job.file->read(job.offset + done, job.dst.subspan(done, len));
    done += len;
    ++requests;
  }
  requests = std::max<std::uint64_t>(requests, 1);
  return requests;
}

IoResult IoScheduler::run_job(Job& job) {
  IoResult result;
  const RetryPolicy& retry = job.retry;

  const auto deadline_passed = [&] {
    if (retry.deadline_seconds <= 0.0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - job.submitted_at;
    return elapsed.count() > retry.deadline_seconds;
  };

  // Fail fast while the error budget is spent: completing the request with
  // ok=false immediately (no device traffic, no retries) keeps a dying
  // device from stalling every in-flight consumer at full retry cost.
  if (error_budget_exhausted()) {
    result.message = "scheduled read rejected: error budget exhausted";
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++budget_rejected_;
      ++failures_;
    }
    if (obs::enabled()) {
      obs_budget_rejected_->add(1);
      obs_failures_->add(1);
    }
    return result;
  }
  if (deadline_passed()) {
    result.message = "scheduled read deadline expired before first attempt";
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++deadline_expired_;
      ++failures_;
    }
    if (obs::enabled()) {
      obs_deadline_expired_->add(1);
      obs_failures_->add(1);
    }
    return result;
  }

  for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    result.attempts = attempt;
    try {
      result.requests = execute(job);
      result.ok = true;
      return result;
    } catch (...) {
      result.error = std::current_exception();
      try {
        std::rethrow_exception(result.error);
      } catch (const std::exception& e) {
        result.message = e.what();
      } catch (...) {
        result.message = "non-standard exception from device read";
      }
    }
    if (attempt == retry.max_attempts) break;
    // Exponential backoff before the re-issue; give up early if it would
    // carry the request past its deadline.
    const double backoff = retry.backoff_seconds(attempt);
    if (backoff > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    if (deadline_passed()) {
      result.message = "scheduled read deadline expired after " +
                       std::to_string(attempt) + " attempt(s): " +
                       result.message;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++deadline_expired_;
        ++failures_;
      }
      if (obs::enabled()) {
        obs_deadline_expired_->add(1);
        obs_failures_->add(1);
      }
      return result;
    }
    job.file->record_retry();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++retries_;
    }
    if (obs::enabled()) obs_retries_->add(1);
  }

  // Retries exhausted: charge the error budget.
  result.message = "scheduled read failed after " +
                   std::to_string(result.attempts) + " attempt(s): " +
                   result.message;
  failed_requests_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++failures_;
  }
  if (obs::enabled()) obs_failures_->add(1);
  return result;
}

void IoScheduler::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // On shutdown keep draining: in-flight requests must complete.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_service_;
    }
    const bool tracked = obs::enabled();
    std::chrono::steady_clock::time_point service_start;
    if (tracked) {
      service_start = std::chrono::steady_clock::now();
      obs_queue_wait_us_->record(static_cast<std::uint64_t>(
          std::chrono::duration<double>(service_start - job.submitted_at)
              .count() *
          1e6));
    }
    const IoResult result = run_job(job);
    if (tracked) {
      obs_service_us_->record(static_cast<std::uint64_t>(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        service_start)
              .count() *
          1e6));
      obs_completed_->add(1);
    }
    {
      // Counted before the waiter is released, so stats() read after a
      // handle's wait() returns already includes this request.
      std::lock_guard<std::mutex> lock(mutex_);
      ++completed_;
    }
    if (job.callback) {
      job.callback(result);
    } else {
      job.promise.set_value(result);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_service_;
    }
    idle_cv_.notify_all();
  }
}

void IoScheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_service_ == 0; });
}

bool IoScheduler::error_budget_exhausted() const noexcept {
  return failed_requests_.load(std::memory_order_relaxed) >=
         config_.error_budget;
}

void IoScheduler::reset_error_budget() noexcept {
  failed_requests_.store(0, std::memory_order_relaxed);
}

std::size_t IoScheduler::pending() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + in_service_;
}

IoSchedulerStats IoScheduler::stats() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  IoSchedulerStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.peak_pending = peak_pending_;
  s.retries = retries_;
  s.failures = failures_;
  s.deadline_expired = deadline_expired_;
  s.budget_rejected = budget_rejected_;
  return s;
}

}  // namespace sembfs
