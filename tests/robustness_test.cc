// Adversarial-input robustness: malformed files and random bytes must
// produce clean Status errors (or benign parses), never crashes, hangs or
// silent corruption.

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/csv.h"
#include "common/random.h"
#include "datagen/scenario.h"
#include "retail/dataset.h"

namespace churnlab {
namespace {

TEST(Robustness, CsvReaderSurvivesRandomBytes) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage;
    const size_t size = rng.NextUint64(400);
    for (size_t i = 0; i < size; ++i) {
      garbage += static_cast<char>(rng.NextUint64(256));
    }
    CsvReader reader = CsvReader::FromString(garbage);
    std::vector<std::string> row;
    size_t rows = 0;
    while (reader.ReadRow(&row) && rows < 10000) ++rows;
    // Either clean EOF or a structured error — and termination either way.
    EXPECT_LT(rows, 10000u);
  }
}

TEST(Robustness, BinaryReaderSurvivesRandomBytes) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage;
    const size_t size = rng.NextUint64(200);
    for (size_t i = 0; i < size; ++i) {
      garbage += static_cast<char>(rng.NextUint64(256));
    }
    BinaryReader reader(garbage);
    // Mixed read sequence; all failures must be Status, not UB.
    (void)reader.ReadVarint();
    (void)reader.ReadString();
    (void)reader.ReadDouble();
    (void)reader.ReadSignedVarint();
  }
}

TEST(Robustness, DatasetLoadBinaryRejectsEveryTruncation) {
  // Build a small valid dataset file, then attempt to load every strict
  // prefix. Each attempt must return an error (never crash, never OK —
  // a strict prefix always misses trailing data).
  datagen::PaperScenarioConfig config;
  config.population.num_loyal = 3;
  config.population.num_defecting = 3;
  config.market.num_segments = 20;
  config.market.num_products = 40;
  config.population.min_repertoire_segments = 4;
  config.population.max_repertoire_segments = 10;
  config.num_months = 4;
  config.seed = 3;
  const retail::Dataset dataset =
      datagen::MakePaperDataset(config).ValueOrDie();
  const std::string path = testing::TempDir() + "/churnlab_trunc.clb";
  ASSERT_TRUE(dataset.SaveBinary(path).ok());

  std::string bytes;
  {
    auto reader = BinaryReader::OpenFile(path);
    ASSERT_TRUE(reader.ok());
    // Reconstruct the raw file contents for truncation.
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    char buffer[4096];
    size_t read;
    while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      bytes.append(buffer, read);
    }
    std::fclose(file);
  }
  ASSERT_GT(bytes.size(), 100u);

  const std::string truncated_path =
      testing::TempDir() + "/churnlab_trunc_cut.clb";
  // Step through prefixes (every byte near the start, coarser later, and
  // the final 32 boundaries).
  std::vector<size_t> cuts;
  for (size_t i = 0; i < bytes.size(); i += 1 + i / 16) cuts.push_back(i);
  for (size_t i = bytes.size() > 32 ? bytes.size() - 32 : 0;
       i < bytes.size(); ++i) {
    cuts.push_back(i);
  }
  for (const size_t cut : cuts) {
    std::FILE* file = std::fopen(truncated_path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, cut, file), cut);
    std::fclose(file);
    const auto loaded = retail::Dataset::LoadBinary(truncated_path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded OK";
  }
  std::remove(path.c_str());
  std::remove(truncated_path.c_str());
}

TEST(Robustness, DatasetLoadBinarySurvivesBitFlips) {
  datagen::PaperScenarioConfig config;
  config.population.num_loyal = 2;
  config.population.num_defecting = 2;
  config.market.num_segments = 10;
  config.market.num_products = 20;
  config.population.min_repertoire_segments = 3;
  config.population.max_repertoire_segments = 6;
  config.num_months = 3;
  config.seed = 4;
  const retail::Dataset dataset =
      datagen::MakePaperDataset(config).ValueOrDie();
  const std::string path = testing::TempDir() + "/churnlab_flip.clb";
  ASSERT_TRUE(dataset.SaveBinary(path).ok());
  std::string bytes;
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    char buffer[4096];
    size_t read;
    while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      bytes.append(buffer, read);
    }
    std::fclose(file);
  }

  Rng rng(5);
  const std::string flipped_path = testing::TempDir() + "/churnlab_flip2.clb";
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = bytes;
    const size_t position =
        static_cast<size_t>(rng.NextUint64(corrupted.size()));
    corrupted[position] =
        static_cast<char>(corrupted[position] ^
                          (1 << rng.NextUint64(8)));
    std::FILE* file = std::fopen(flipped_path.c_str(), "wb");
    ASSERT_EQ(std::fwrite(corrupted.data(), 1, corrupted.size(), file),
              corrupted.size());
    std::fclose(file);
    // May legitimately load (a flipped price byte is still a dataset) or
    // fail cleanly — it must not crash. If it loads, basic invariants hold.
    const auto loaded = retail::Dataset::LoadBinary(flipped_path);
    if (loaded.ok()) {
      EXPECT_TRUE(loaded.ValueOrDie().store().finalized());
    }
  }
  std::remove(path.c_str());
  std::remove(flipped_path.c_str());
}

TEST(Robustness, DatasetLoadBinaryRejectsAnOverstatedReceiptCount) {
  // An empty dataset's file ends with two zero varints: the receipt count
  // and the label count. Replace them with a huge receipt count and one
  // complete receipt. The loader must fail on the missing second receipt
  // without sizing anything from the count: a 2^60 reservation would throw
  // (it exceeds any vector's max_size), a 2^40 one would ask for ~44 TB.
  retail::Dataset empty;
  empty.Finalize();
  const std::string path = testing::TempDir() + "/churnlab_huge_count.clb";
  ASSERT_TRUE(empty.SaveBinary(path).ok());
  std::string header;
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    char buffer[256];
    const size_t read = std::fread(buffer, 1, sizeof(buffer), file);
    std::fclose(file);
    ASSERT_GE(read, 2u);
    ASSERT_EQ(buffer[read - 1], 0);
    ASSERT_EQ(buffer[read - 2], 0);
    header.assign(buffer, read - 2);
  }
  for (const uint64_t claimed : {uint64_t{1} << 40, uint64_t{1} << 60}) {
    BinaryWriter writer;
    writer.WriteBytes(header.data(), header.size());
    writer.WriteVarint(claimed);
    writer.WriteVarint(7);          // customer
    writer.WriteSignedVarint(3);    // day
    writer.WriteDouble(1.5);        // spend
    writer.WriteVarint(2);          // item count
    writer.WriteVarint(4);          // item 4
    writer.WriteVarint(1);          // item 5
    ASSERT_TRUE(writer.SaveToFile(path).ok());
    Result<retail::Dataset> loaded = Status::Internal("not run");
    ASSERT_NO_THROW(loaded = retail::Dataset::LoadBinary(path)) << claimed;
    ASSERT_FALSE(loaded.ok()) << claimed;
    EXPECT_TRUE(loaded.status().IsOutOfRange())
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(Robustness, LoadCsvWithBrokenRowsFails) {
  const std::string prefix = testing::TempDir() + "/churnlab_badcsv";
  // taxonomy ok, receipts malformed (wrong column count / bad numbers).
  {
    std::FILE* file = std::fopen((prefix + ".taxonomy.csv").c_str(), "wb");
    std::fputs("item,segment,department\nmilk-0,milk,dairy\n", file);
    std::fclose(file);
  }
  {
    std::FILE* file = std::fopen((prefix + ".labels.csv").c_str(), "wb");
    std::fputs("customer,cohort,onset_month\n1,loyal,-1\n", file);
    std::fclose(file);
  }
  const auto write_receipts = [&](const char* body) {
    std::FILE* file = std::fopen((prefix + ".receipts.csv").c_str(), "wb");
    std::fputs("customer,day,spend,items\n", file);
    std::fputs(body, file);
    std::fclose(file);
  };

  write_receipts("1,5\n");  // too few columns
  EXPECT_FALSE(retail::Dataset::LoadCsv(prefix).ok());
  write_receipts("1,notaday,3.5,milk-0\n");
  EXPECT_FALSE(retail::Dataset::LoadCsv(prefix).ok());
  write_receipts("1,5,notaspend,milk-0\n");
  EXPECT_FALSE(retail::Dataset::LoadCsv(prefix).ok());
  write_receipts("1,-7,3.5,milk-0\n");  // negative day
  EXPECT_FALSE(retail::Dataset::LoadCsv(prefix).ok());
  write_receipts("1,5,3.5,milk-0\n");  // and a valid one loads
  EXPECT_TRUE(retail::Dataset::LoadCsv(prefix).ok());

  std::remove((prefix + ".receipts.csv").c_str());
  std::remove((prefix + ".taxonomy.csv").c_str());
  std::remove((prefix + ".labels.csv").c_str());
}

}  // namespace
}  // namespace churnlab
