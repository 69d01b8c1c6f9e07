#include "common/thread_pool.hpp"

#include <climits>
#include <cstdlib>

#include "common/parse.hpp"

namespace topfull {
namespace {

// Set inside WorkerLoop so reentrant Submit/ParallelMap calls can detect
// that they already run on one of this pool's workers.
thread_local const ThreadPool* tls_worker_pool = nullptr;

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;
int g_global_threads_override = 0;

}  // namespace

ThreadPool::ThreadPool(int threads) : size_(threads > 0 ? threads : EnvThreads()) {
  if (size_ <= 1) return;
  workers_.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::OnWorkerThread() const { return tls_worker_pool == this; }

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

int ThreadPool::EnvThreads() {
  // Checked like --threads: 0, empty or unset is the default; junk exits 2.
  const char* value = std::getenv("TOPFULL_THREADS");
  if (value != nullptr && *value != '\0') {
    if (const int n = WholeOrExit("TOPFULL_THREADS", value, 0, INT_MAX); n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(g_global_threads_override);
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(int threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global_threads_override = threads;
  g_global_pool.reset();
}

}  // namespace topfull
