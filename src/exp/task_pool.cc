#include "exp/task_pool.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace spburst::exp
{

unsigned
hostConcurrency()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

void
parallelFor(unsigned threads, std::size_t count,
            const std::function<void(std::size_t)> &body)
{
    if (threads == 0)
        threads = hostConcurrency();
    if (count == 0)
        return;
    if (threads > count)
        threads = static_cast<unsigned>(count);

    if (threads == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&] {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();

    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace spburst::exp
