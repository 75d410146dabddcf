#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "simgpu/device.h"

namespace smiler {
namespace simgpu {
namespace {

TEST(SharedMemoryTest, BumpAllocatesWithinCapacity) {
  SharedMemory shm(1024);
  double* a = shm.Alloc<double>(64);  // 512 bytes
  ASSERT_NE(a, nullptr);
  double* b = shm.Alloc<double>(64);  // another 512
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(shm.used(), 1024u);
  EXPECT_EQ(shm.Alloc<double>(1), nullptr);  // exhausted
  shm.Reset();
  EXPECT_EQ(shm.used(), 0u);
  EXPECT_NE(shm.Alloc<double>(64), nullptr);
}

TEST(SharedMemoryTest, RespectsAlignment) {
  SharedMemory shm(256);
  char* c = shm.Alloc<char>(3);
  ASSERT_NE(c, nullptr);
  double* d = shm.Alloc<double>(1);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
}

TEST(DeviceTest, LaunchRunsEveryBlockOnce) {
  Device device;
  std::vector<std::atomic<int>> hits(128);
  auto st = device.Launch(128, 32, [&](BlockContext& ctx) {
    hits[ctx.block_id] += 1;
    EXPECT_EQ(ctx.grid_dim, 128);
    EXPECT_EQ(ctx.block_dim, 32);
    EXPECT_NE(ctx.shared, nullptr);
  });
  ASSERT_TRUE(st.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DeviceTest, LaunchZeroGridIsNoop) {
  Device device;
  bool called = false;
  auto st = device.Launch(0, 32, [&](BlockContext&) { called = true; });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(called);
}

TEST(DeviceTest, LaunchRejectsBadDims) {
  Device device;
  EXPECT_FALSE(device.Launch(-1, 32, [](BlockContext&) {}).ok());
  EXPECT_FALSE(device.Launch(4, 0, [](BlockContext&) {}).ok());
}

TEST(DeviceTest, SharedMemoryIsPerBlock) {
  Device device;
  std::atomic<int> failures{0};
  auto st = device.Launch(64, 4, [&](BlockContext& ctx) {
    int* p = ctx.shared->Alloc<int>(16);
    if (p == nullptr) {
      failures += 1;
      return;
    }
    for (int i = 0; i < 16; ++i) p[i] = ctx.block_id;
    for (int i = 0; i < 16; ++i) {
      if (p[i] != ctx.block_id) failures += 1;
    }
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(failures.load(), 0);
}

TEST(DeviceTest, MemoryAccounting) {
  Device device(/*memory_budget_bytes=*/1024);
  EXPECT_TRUE(device.AllocateBytes(512).ok());
  EXPECT_EQ(device.memory_used(), 512u);
  EXPECT_TRUE(device.AllocateBytes(512).ok());
  auto st = device.AllocateBytes(1);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  device.FreeBytes(1024);
  EXPECT_EQ(device.memory_used(), 0u);
}

TEST(SharedMemoryTest, OverflowingCountIsRejectedNotWrapped) {
  SharedMemory shm(1024);
  // count * sizeof(T) would wrap std::size_t; the capacity check must be
  // phrased division-side so the request is rejected, not wrapped into a
  // tiny "fitting" byte count.
  const std::size_t wrap = std::numeric_limits<std::size_t>::max() / 8 + 2;
  EXPECT_EQ(shm.Alloc<double>(wrap), nullptr);
  EXPECT_EQ(shm.used(), 0u);  // failed allocs consume nothing
  // Still usable afterwards.
  EXPECT_NE(shm.Alloc<double>(8), nullptr);
}

TEST(SharedMemoryTest, OverAlignedTypesGetAbsoluteAlignment) {
  struct alignas(64) CacheLine {
    char bytes[64];
  };
  SharedMemory shm(1024);
  ASSERT_NE(shm.Alloc<char>(3), nullptr);  // misalign the bump pointer
  CacheLine* line = shm.Alloc<CacheLine>(2);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(line) % alignof(CacheLine), 0u);
}

TEST(SharedMemoryTest, AllocationPropertySweep) {
  // Deterministic pseudo-random alloc sequences: every success must be
  // aligned, inside the arena, and disjoint from every earlier block;
  // every failure must leave used() untouched.
  constexpr std::size_t kCapacity = 4096;
  SharedMemory shm(kCapacity);
  std::uint64_t rng = 0x2545F4914F6CDD1DULL;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 50; ++round) {
    shm.Reset();
    ASSERT_EQ(shm.used(), 0u);
    std::vector<std::pair<uintptr_t, uintptr_t>> blocks;  // [begin, end)
    for (int i = 0; i < 40; ++i) {
      const std::size_t count = next() % 96 + 1;
      const std::size_t before = shm.used();
      uintptr_t begin = 0, end = 0;
      std::size_t align = 0;
      switch (next() % 3) {
        case 0: {
          char* p = shm.Alloc<char>(count);
          if (p == nullptr) break;
          begin = reinterpret_cast<uintptr_t>(p);
          end = begin + count;
          align = alignof(char);
          break;
        }
        case 1: {
          double* p = shm.Alloc<double>(count);
          if (p == nullptr) break;
          begin = reinterpret_cast<uintptr_t>(p);
          end = begin + count * sizeof(double);
          align = alignof(double);
          break;
        }
        default: {
          long* p = shm.Alloc<long>(count);
          if (p == nullptr) break;
          begin = reinterpret_cast<uintptr_t>(p);
          end = begin + count * sizeof(long);
          align = alignof(long);
          break;
        }
      }
      if (begin == 0) {
        EXPECT_EQ(shm.used(), before);  // failure is side-effect free
        continue;
      }
      EXPECT_EQ(begin % align, 0u);
      EXPECT_GE(shm.used(), before);
      EXPECT_LE(shm.used(), kCapacity);
      for (const auto& [obegin, oend] : blocks) {
        EXPECT_TRUE(end <= obegin || begin >= oend)
            << "blocks overlap: [" << begin << ", " << end << ") vs ["
            << obegin << ", " << oend << ")";
      }
      blocks.emplace_back(begin, end);
    }
  }
}

TEST(DeviceTest, ConcurrentBlocksShareGlobalMemorySafely) {
  Device device;
  std::vector<long> out(1000, 0);
  auto st = device.Launch(10, 8, [&](BlockContext& ctx) {
    // Grid-strided disjoint writes, the idiom every index kernel uses.
    for (std::size_t i = ctx.block_id; i < out.size(); i += ctx.grid_dim) {
      out[i] = static_cast<long>(i) * 3;
    }
  });
  ASSERT_TRUE(st.ok());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<long>(i) * 3);
  }
}

}  // namespace
}  // namespace simgpu
}  // namespace smiler
