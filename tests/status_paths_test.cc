// Exercises every error-constructor site in src/serve and src/index: each
// distinct Status a client can receive is produced at least once, with
// the exact code asserted. Checkpoint corruptions are crafted bytewise
// against the SMLRCKPT layout (header magic[8] + version u32 + count u32,
// then per engine: payload_size u64, FNV-1a checksum u64, payload).

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "case_scratch_dir.h"
#include "core/engine.h"
#include "core/manager.h"
#include "index/smiler_index.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "simgpu/device.h"
#include "ts/datasets.h"

namespace smiler {
namespace {

SmilerConfig SmallConfig() {
  SmilerConfig cfg;
  cfg.rho = 4;
  cfg.omega = 8;
  cfg.elv = {16, 24};
  cfg.ekv = {4, 8};
  return cfg;
}

ts::TimeSeries MakeSensor(int points, int seed = 3) {
  auto data = ts::MakeDataset(
      {ts::DatasetKind::kRoad, 1, points, 64, static_cast<uint64_t>(seed),
       true});
  return (*data)[0];
}

std::string TempPath(const char* tag) {
  return testing::TempDir() + "/smiler_status_" + tag + ".ckpt";
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t Fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

// Byte offsets of the single-engine layout.
constexpr std::size_t kCountOffset = 12;
constexpr std::size_t kPayloadSizeOffset = 16;
constexpr std::size_t kChecksumOffset = 24;
constexpr std::size_t kPayloadOffset = 32;

void PatchU64(std::string* blob, std::size_t offset, std::uint64_t v) {
  std::memcpy(blob->data() + offset, &v, sizeof(v));
}

/// Re-stamps payload_size and checksum after editing the payload in place
/// so only the *intended* corruption is visible to Load.
void RestampSingleEngine(std::string* blob) {
  const std::size_t payload_size = blob->size() - kPayloadOffset;
  PatchU64(blob, kPayloadSizeOffset, payload_size);
  PatchU64(blob, kChecksumOffset,
           Fnv1a(blob->data() + kPayloadOffset, payload_size));
}

class StatusPathsTest : public ::testing::Test {
 protected:
  /// A small server fleet (2 sensors, 1 shard) for the serve paths.
  Result<std::unique_ptr<serve::PredictionServer>> MakeServer(
      std::size_t queue_capacity = 16) {
    auto manager = core::MultiSensorManager::Create(
        &device_, {MakeSensor(64, 1), MakeSensor(64, 2)}, SmallConfig(),
        core::PredictorKind::kAr);
    if (!manager.ok()) return manager.status();
    serve::ServerOptions options;
    options.num_shards = 1;
    options.queue_capacity = queue_capacity;
    return serve::PredictionServer::Create(std::move(*manager), options);
  }

  simgpu::Device device_;
};

// ---------------------------------------------------------------------------
// serve::PredictionServer

TEST_F(StatusPathsTest, ServerCreateRejectsBadOptions) {
  auto make = [&](serve::ServerOptions options) {
    auto manager = core::MultiSensorManager::Create(
        &device_, {MakeSensor(64)}, SmallConfig(), core::PredictorKind::kAr);
    EXPECT_TRUE(manager.ok());
    return serve::PredictionServer::Create(std::move(*manager), options)
        .status();
  };
  serve::ServerOptions no_shards;
  no_shards.num_shards = 0;
  EXPECT_EQ(make(no_shards).code(), StatusCode::kInvalidArgument);
  serve::ServerOptions no_queue;
  no_queue.queue_capacity = 0;
  EXPECT_EQ(make(no_queue).code(), StatusCode::kInvalidArgument);
}

TEST_F(StatusPathsTest, UnknownSensorIsInvalidArgument) {
  auto server = MakeServer();
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->Predict(99).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*server)->Observe(99, 0.5).code(), StatusCode::kInvalidArgument);
}

TEST_F(StatusPathsTest, ShutdownRejectsWithFailedPrecondition) {
  auto server = MakeServer();
  ASSERT_TRUE(server.ok());
  (*server)->Shutdown();
  EXPECT_EQ((*server)->Predict(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*server)->SaveCheckpoint(TempPath("after_shutdown")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(StatusPathsTest, FullQueueShedsWithResourceExhausted) {
  auto server = MakeServer(/*queue_capacity=*/1);
  ASSERT_TRUE(server.ok());
  // Flood a capacity-1 queue from this thread; the worker can't drain as
  // fast as we enqueue forever, so at least one admission must fail.
  std::vector<std::future<serve::Response>> futures;
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    futures.push_back((*server)->AsyncPredict(0));
  }
  for (auto& f : futures) {
    const Status s = f.get().status;
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      EXPECT_NE(s.message().find("queue is full"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST_F(StatusPathsTest, ExpiredDeadlineIsShed) {
  auto server = MakeServer();
  ASSERT_TRUE(server.ok());
  const serve::Deadline expired =
      serve::Clock::now() - std::chrono::seconds(5);
  EXPECT_EQ((*server)->Predict(0, expired).status().code(),
            StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// serve::Checkpoint — Save failures

TEST_F(StatusPathsTest, SaveIntoMissingDirectoryFails) {
  auto engine = core::SensorEngine::Create(&device_, MakeSensor(64),
                                           SmallConfig(),
                                           core::PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  const Status s = serve::Checkpoint::Save(
      testing::TempDir() + "/no_such_dir_xyz/ckpt.bin", {engine->Snapshot()});
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("cannot open"), std::string::npos);
}

TEST_F(StatusPathsTest, RenameOntoDirectoryFails) {
  auto engine = core::SensorEngine::Create(&device_, MakeSensor(64),
                                           SmallConfig(),
                                           core::PredictorKind::kAr);
  ASSERT_TRUE(engine.ok());
  // The final rename target is an existing non-empty directory, so the
  // tmp write succeeds but the atomic publish step fails.
  const std::string dir = testing::TempDir() + "/smiler_rename_target";
  std::remove(dir.c_str());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  WriteAll(dir + "/occupant", "x");
  const Status s = serve::Checkpoint::Save(dir, {engine->Snapshot()});
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("rename"), std::string::npos);
  std::remove((dir + "/occupant").c_str());
  std::remove((dir + ".tmp").c_str());
  ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------------
// serve::Checkpoint — Load failures (crafted corruptions)

class CheckpointCorruptionTest : public StatusPathsTest {
 protected:
  void SetUp() override {
    auto engine = core::SensorEngine::Create(&device_, MakeSensor(64),
                                             SmallConfig(),
                                             core::PredictorKind::kAr);
    ASSERT_TRUE(engine.ok());
    // One Predict leaves a pending forecast in the snapshot, so the
    // pending-grid parse guard is reachable.
    ASSERT_TRUE(engine->Predict(nullptr).ok());
    // A file private to this case: `ctest -j` runs the cases as
    // concurrent processes, which must not save over each other.
    path_ = scratch_.path() + "/smiler_status_corrupt.ckpt";
    ASSERT_TRUE(serve::Checkpoint::Save(path_, {engine->Snapshot()}).ok());
    blob_ = ReadAll(path_);
    ASSERT_GT(blob_.size(), kPayloadOffset);
  }

  StatusCode LoadCode(const std::string& bytes) {
    WriteAll(path_, bytes);
    return serve::Checkpoint::Load(path_).status().code();
  }

  CaseScratchDir scratch_;
  std::string path_;
  std::string blob_;
};

TEST_F(CheckpointCorruptionTest, MissingFileIsNotFound) {
  EXPECT_EQ(serve::Checkpoint::Load(TempPath("never_written"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointCorruptionTest, BadMagicIsInvalidArgument) {
  std::string bytes = blob_;
  bytes[0] = 'X';
  EXPECT_EQ(LoadCode(bytes), StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadCode("short"), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointCorruptionTest, FutureVersionIsFailedPrecondition) {
  std::string bytes = blob_;
  const std::uint32_t future = 0x7fffffff;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  EXPECT_EQ(LoadCode(bytes), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointCorruptionTest, TruncationIsInvalidArgument) {
  // Cut mid-payload: the declared payload_size outruns the file.
  EXPECT_EQ(LoadCode(blob_.substr(0, blob_.size() / 2)),
            StatusCode::kInvalidArgument);
  // Cut mid-per-engine-header.
  EXPECT_EQ(LoadCode(blob_.substr(0, kPayloadSizeOffset + 3)),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointCorruptionTest, BitrotFailsTheChecksum) {
  std::string bytes = blob_;
  bytes[bytes.size() - 1] ^= 0x40;  // flip one payload bit, keep checksum
  const auto loaded = [&] {
    WriteAll(path_, bytes);
    return serve::Checkpoint::Load(path_);
  }();
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, TrailingBytesAreRejected) {
  EXPECT_EQ(LoadCode(blob_ + std::string(4, '\0')),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointCorruptionTest, UnknownPredictorKindIsRejected) {
  // The kind byte follows 5 i32s, 5 flag bytes, and the ELV/EKV i32
  // vectors (u64 count + 4 bytes each entry) — compute, don't hardcode.
  const SmilerConfig cfg = SmallConfig();
  const std::size_t kind_offset = kPayloadOffset + 5 * 4 + 5 +
                                  (8 + 4 * cfg.elv.size()) +
                                  (8 + 4 * cfg.ekv.size());
  std::string bytes = blob_;
  ASSERT_LT(kind_offset, bytes.size());
  bytes[kind_offset] = 7;  // no such PredictorKind
  RestampSingleEngine(&bytes);
  const auto loaded = [&] {
    WriteAll(path_, bytes);
    return serve::Checkpoint::Load(path_);
  }();
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("predictor kind"),
            std::string::npos);
}

TEST_F(CheckpointCorruptionTest, PayloadTrailingBytesAreRejected) {
  // Grow the payload by one byte and restamp size + checksum: the outer
  // frame is consistent, so the *engine parser's* trailing-bytes guard
  // must fire.
  std::string bytes = blob_ + std::string(1, '\0');
  RestampSingleEngine(&bytes);
  const auto loaded = [&] {
    WriteAll(path_, bytes);
    return serve::Checkpoint::Load(path_);
  }();
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("trailing"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, PendingGridBombIsRejected) {
  // The engine was saved with one pending forecast; its grid rows field
  // sits 41 bytes before the payload end for a rows x cols grid:
  // ... rows i32, cols i32, rows*cols*(2 f64 + u8), raw 2 f64. Claim an
  // absurd row count — the parser's allocation guard must reject it
  // instead of allocating.
  const SmilerConfig cfg = SmallConfig();
  const std::size_t cells = cfg.ekv.size() * cfg.elv.size();
  const std::size_t tail = 2 * 4 + cells * (2 * 8 + 1) + 2 * 8;
  const std::size_t rows_offset = blob_.size() - tail;
  std::string bytes = blob_;
  const std::int32_t bomb = 0x7fffffff;
  std::memcpy(bytes.data() + rows_offset, &bomb, sizeof(bomb));
  RestampSingleEngine(&bytes);
  const auto loaded = [&] {
    WriteAll(path_, bytes);
    return serve::Checkpoint::Load(path_);
  }();
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, EngineCountBeyondFileIsRejected) {
  std::string bytes = blob_;
  const std::uint32_t many = 5;
  std::memcpy(bytes.data() + kCountOffset, &many, sizeof(many));
  EXPECT_EQ(LoadCode(bytes), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// index::SmilerIndex

TEST_F(StatusPathsTest, BuildRejectsBadInputs) {
  EXPECT_EQ(index::SmilerIndex::Build(nullptr, MakeSensor(64), SmallConfig())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  SmilerConfig bad = SmallConfig();
  bad.omega = 0;
  EXPECT_EQ(index::SmilerIndex::Build(&device_, MakeSensor(64), bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index::SmilerIndex::Build(&device_, MakeSensor(16), SmallConfig())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StatusPathsTest, RestoreRejectsEveryInconsistency) {
  const SmilerConfig cfg = SmallConfig();
  auto index = index::SmilerIndex::Build(&device_, MakeSensor(64), cfg);
  ASSERT_TRUE(index.ok());
  const index::IndexSnapshot clean = index->Snapshot();
  auto restore_code = [&](index::IndexSnapshot snap) {
    return index::SmilerIndex::Restore(&device_, cfg, std::move(snap))
        .status()
        .code();
  };
  EXPECT_EQ(index::SmilerIndex::Restore(nullptr, cfg, clean).status().code(),
            StatusCode::kInvalidArgument);
  {
    index::IndexSnapshot snap = clean;
    snap.series.resize(8);
    EXPECT_EQ(restore_code(std::move(snap)), StatusCode::kInvalidArgument);
  }
  {
    index::IndexSnapshot snap = clean;
    snap.env_c_upper.pop_back();
    EXPECT_EQ(restore_code(std::move(snap)), StatusCode::kInvalidArgument);
  }
  {
    index::IndexSnapshot snap = clean;
    snap.env_mq_lower.push_back(0.0);
    EXPECT_EQ(restore_code(std::move(snap)), StatusCode::kInvalidArgument);
  }
  {
    index::IndexSnapshot snap = clean;
    snap.head = 10000;
    EXPECT_EQ(restore_code(std::move(snap)), StatusCode::kInvalidArgument);
  }
  {
    index::IndexSnapshot snap = clean;
    snap.cols += 1;
    EXPECT_EQ(restore_code(std::move(snap)), StatusCode::kInvalidArgument);
  }
  {
    index::IndexSnapshot snap = clean;
    snap.prev_knn.pop_back();
    EXPECT_EQ(restore_code(std::move(snap)), StatusCode::kInvalidArgument);
  }
  {
    index::IndexSnapshot snap = clean;
    snap.prev_knn[0].push_back(
        index::Neighbor{static_cast<long>(snap.series.size()), 0.0});
    EXPECT_EQ(restore_code(std::move(snap)), StatusCode::kInvalidArgument);
  }
  {
    index::IndexSnapshot snap = clean;
    snap.arena.pop_back();  // rows * 2 * stride no longer holds
    EXPECT_EQ(restore_code(std::move(snap)), StatusCode::kInvalidArgument);
  }
  // The unmutated snapshot still restores (the guards above fired for
  // the right reason, not because the fixture was broken).
  EXPECT_TRUE(index::SmilerIndex::Restore(&device_, cfg, clean).ok());
}

TEST_F(StatusPathsTest, SearchRejectsBadArguments) {
  auto index = index::SmilerIndex::Build(&device_, MakeSensor(64),
                                         SmallConfig());
  ASSERT_TRUE(index.ok());
  index::SuffixSearchOptions opts;
  opts.k = 0;
  EXPECT_EQ(index->Search(opts, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  opts.k = 2;
  opts.reserve_horizon = -1;
  EXPECT_EQ(index->Search(opts, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StatusPathsTest, TinyDeviceBudgetExhausts) {
  simgpu::Device tiny(/*memory_budget_bytes=*/1024);
  const auto status =
      index::SmilerIndex::Build(&tiny, MakeSensor(64), SmallConfig())
          .status();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST_F(StatusPathsTest, LaunchRejectsBadGeometry) {
  EXPECT_EQ(device_.Launch("bad", -1, 8, [](simgpu::BlockContext&) {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(device_.Launch("bad", 1, 0, [](simgpu::BlockContext&) {}).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace smiler
