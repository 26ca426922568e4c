// Tests for backup workers and straggler simulation (paper §2.1).
#include <gtest/gtest.h>

#include "compress/factory.h"
#include "train/experiment.h"
#include "train/time_model.h"
#include "train/trainer.h"

namespace threelc::train {
namespace {

using compress::CodecConfig;

class StragglerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new ExperimentConfig(SmallExperiment());
    data_ = new data::SyntheticData(data::MakeTeacherDataset(config_->data));
  }
  static void TearDownTestSuite() {
    delete config_;
    delete data_;
  }
  static ExperimentConfig* config_;
  static data::SyntheticData* data_;
};

ExperimentConfig* StragglerTest::config_ = nullptr;
data::SyntheticData* StragglerTest::data_ = nullptr;

TEST_F(StragglerTest, NoStragglersMeansUnitMultiplier) {
  auto r = RunDesign(*config_, CodecConfig::Float32(), 20, *data_);
  for (const auto& s : r.steps) {
    EXPECT_EQ(s.compute_multiplier, 1.0);
    EXPECT_EQ(s.contributors, config_->trainer.num_workers);
  }
}

TEST_F(StragglerTest, BackupWorkersReduceContributors) {
  ExperimentConfig cfg = *config_;
  cfg.trainer.backup_workers = 1;
  auto r = RunDesign(cfg, CodecConfig::Float32(), 20, *data_);
  for (const auto& s : r.steps) {
    EXPECT_EQ(s.contributors, cfg.trainer.num_workers - 1);
  }
}

TEST_F(StragglerTest, StragglersRaiseWaitedComputeUnderBsp) {
  ExperimentConfig cfg = *config_;
  cfg.trainer.straggler_prob = 0.5;  // half the workers lag badly
  cfg.trainer.straggler_slowdown = 5.0;
  auto r = RunDesign(cfg, CodecConfig::Float32(), 30, *data_);
  double mean_mult = 0.0;
  for (const auto& s : r.steps) mean_mult += s.compute_multiplier;
  mean_mult /= static_cast<double>(r.steps.size());
  // With 4 workers at p=0.5, almost every step waits for a straggler.
  EXPECT_GT(mean_mult, 3.0);
}

TEST_F(StragglerTest, BackupWorkersCutTheWait) {
  ExperimentConfig cfg = *config_;
  cfg.trainer.straggler_prob = 0.2;
  cfg.trainer.straggler_slowdown = 10.0;
  auto bsp = RunDesign(cfg, CodecConfig::Float32(), 40, *data_);
  cfg.trainer.backup_workers = 1;
  auto backup = RunDesign(cfg, CodecConfig::Float32(), 40, *data_);
  double bsp_mult = 0.0, backup_mult = 0.0;
  for (const auto& s : bsp.steps) bsp_mult += s.compute_multiplier;
  for (const auto& s : backup.steps) backup_mult += s.compute_multiplier;
  EXPECT_LT(backup_mult, bsp_mult);
}

TEST_F(StragglerTest, TimeModelReflectsStragglerWait) {
  ExperimentConfig cfg = *config_;
  cfg.trainer.straggler_prob = 0.3;
  cfg.trainer.straggler_slowdown = 8.0;
  auto slow = RunDesign(cfg, CodecConfig::Float32(), 25, *data_);
  auto fast = RunDesign(*config_, CodecConfig::Float32(), 25, *data_);
  TimeModelConfig tm;
  tm.link = net::LinkConfig::OneGbps();
  EXPECT_GT(EstimateTrainingSeconds(slow, tm),
            EstimateTrainingSeconds(fast, tm));
}

TEST_F(StragglerTest, TrainingStillConvergesWithBackupWorkers) {
  ExperimentConfig cfg = *config_;
  cfg.trainer.backup_workers = 1;
  cfg.trainer.straggler_prob = 0.2;
  auto r = RunDesign(cfg, CodecConfig::ThreeLC(1.0f), 120, *data_);
  EXPECT_GT(r.final_test_accuracy, 0.3);
}

TEST_F(StragglerTest, JitterProducesMultipliersAboveOne) {
  ExperimentConfig cfg = *config_;
  cfg.trainer.straggler_jitter = 0.2;
  auto r = RunDesign(cfg, CodecConfig::Float32(), 15, *data_);
  for (const auto& s : r.steps) {
    EXPECT_GE(s.compute_multiplier, 1.0);
  }
}

}  // namespace
}  // namespace threelc::train
