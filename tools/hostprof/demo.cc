// Sample target for hostprof's self-test: burns its CPU time in DemoSpin
// and in libc memcpy called from DemoCopy, in comparable shares.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

namespace {

[[gnu::noinline]] uint64_t DemoSpin(uint64_t x) {
  for (int i = 0; i < 1 << 20; ++i) x = x * 6364136223846793005ULL + 1;
  return x;
}

[[gnu::noinline]] void DemoCopy(std::vector<char>& dst,
                                const std::vector<char>& src) {
  for (int i = 0; i < 24; ++i) std::memcpy(dst.data(), src.data(), dst.size());
}

}  // namespace

int main() {
  // Fixed work: about 0.25 s in each routine on a current x86-64 core.
  std::vector<char> src(1 << 20, 'a');
  std::vector<char> dst(src.size());
  uint64_t x = 1;
  for (int round = 0; round < 200; ++round) {
    x = DemoSpin(x);
    DemoCopy(dst, src);
  }
  std::printf("%llu %d\n", static_cast<unsigned long long>(x), dst[7]);
  return 0;
}
