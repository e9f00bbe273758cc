#include "common/huge_buffer.h"

#include <cstring>
#include <mutex>
#include <new>
#include <unordered_map>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace rstore::common {
namespace {

constexpr size_t kHugePageBytes = 2ULL << 20;

// Only mmap allocations big enough to hold at least one huge page;
// smaller buffers gain nothing and would fragment the address space.
constexpr size_t kMmapThreshold = kHugePageBytes;

// Released mappings are retained (up to a cap) and handed back to later
// same-size allocations. Server arenas and pinned client buffers are
// allocated in a handful of repeating sizes, so pooling converts the
// dominant cost of a fresh arena — one minor fault per 4 KiB page on
// first touch — into a single streaming memset over warm pages. The pool
// is process-wide and mutex-guarded: simulated threads are cooperative
// fibers, but separate simulations may be driven from separate host
// threads.
constexpr size_t kPoolCapBytes = 1ULL << 30;

std::mutex& PoolMu() {
  static std::mutex mu;
  return mu;
}
std::unordered_multimap<size_t, void*>& Pool() {
  static std::unordered_multimap<size_t, void*> pool;
  return pool;
}
size_t g_pool_bytes = 0;

void* PoolTake(size_t rounded) {
  std::lock_guard<std::mutex> lock(PoolMu());
  auto& pool = Pool();
  auto it = pool.find(rounded);
  if (it == pool.end()) return nullptr;
  void* p = it->second;
  pool.erase(it);
  g_pool_bytes -= rounded;
  return p;
}

// True if the mapping was retained; false means the caller must unmap.
bool PoolPut(void* p, size_t rounded) {
  std::lock_guard<std::mutex> lock(PoolMu());
  if (g_pool_bytes + rounded > kPoolCapBytes) return false;
  Pool().emplace(rounded, p);
  g_pool_bytes += rounded;
  return true;
}

}  // namespace

HugeBuffer::HugeBuffer(size_t size) : size_(size) {
  if (size == 0) return;
#if defined(__linux__)
  if (size >= kMmapThreshold) {
    const size_t rounded =
        (size + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
    if (void* reused = PoolTake(rounded)) {
      // Reused mappings are already faulted in; restoring the zero-fill
      // guarantee with one memset pass is far cheaper than taking a minor
      // fault per 4 KiB page on a fresh mapping.
      std::memset(reused, 0, size);
      data_ = static_cast<std::byte*>(reused);
      mapped_bytes_ = rounded;
      return;
    }
    void* p = ::mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
#if defined(MADV_HUGEPAGE)
      // Advisory: first touch proceeds with 4 KiB pages if THP is off.
      (void)::madvise(p, rounded, MADV_HUGEPAGE);
#endif
      data_ = static_cast<std::byte*>(p);
      mapped_bytes_ = rounded;
      return;
    }
  }
#endif
  data_ = static_cast<std::byte*>(::operator new(size));
  std::memset(data_, 0, size);
}

HugeBuffer::~HugeBuffer() { Release(); }

void HugeBuffer::Release() noexcept {
  if (data_ == nullptr) return;
#if defined(__linux__)
  if (mapped_bytes_ != 0) {
    if (!PoolPut(data_, mapped_bytes_)) (void)::munmap(data_, mapped_bytes_);
    data_ = nullptr;
    mapped_bytes_ = 0;
    return;
  }
#endif
  ::operator delete(data_);
  data_ = nullptr;
}

}  // namespace rstore::common
