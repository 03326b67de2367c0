// bigkdur durable checkpoint/resume at the serving layer: jobs — on a device
// or spilled to the host cores — run as checkpoint windows journaled after
// each verified window; a redispatch resumes mid-job instead of restarting;
// and a whole-server crash (teardown + rebuild over the same journal)
// resumes every in-flight job from its last checkpoint — replaying strictly
// fewer windows, and finishing sooner, than a restart from zero. Resume is digest-verified: a successor whose output
// storage did not survive the crash falls back to record zero instead of
// emitting a hole.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <string>
#include <vector>

#include "dur/journal.hpp"
#include "serve/job.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

using test::make_durable_toy_suite;
using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;
using test::ToyRunner;

constexpr std::uint64_t kRecords = 6'000;
constexpr std::uint64_t kWindow = 1'500;  // 4 checkpoint windows per job
constexpr std::uint32_t kJobs = 4;

ServerConfig dur_server(dur::JobJournal* journal) {
  ServerConfig config;
  config.system = toy_system();
  config.devices = 2;
  config.policy = Policy::kRoundRobin;
  config.queue_depth = 8;
  config.retry_after = sim::DurationPs{1'000'000'000};  // 1 ms
  config.max_retries = 200;
  config.engine = toy_engine_options();
  config.dur.journal = journal;
  config.dur.checkpoint_records = kWindow;
  return config;
}

/// One job per app name, all submitted at t=0. The durable suite shares one
/// persistent runner per app, so distinct jobs must use distinct apps.
std::vector<JobSpec> one_job_per_app() {
  std::vector<JobSpec> specs;
  for (std::uint32_t i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app = "toy" + std::to_string(i);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<std::shared_ptr<ToyRunner>> durable_runners() {
  std::vector<std::shared_ptr<ToyRunner>> runners;
  for (std::uint32_t i = 0; i < kJobs; ++i) {
    runners.push_back(std::make_shared<ToyRunner>("toy" + std::to_string(i),
                                                  kRecords, 8.0));
  }
  return runners;
}

/// Makespan of an untouched run — the reference for picking a crash instant
/// that lands mid-workload.
sim::TimePs clean_makespan() {
  static const sim::TimePs makespan = [] {
    const auto suite = make_toy_suite(kJobs, kRecords);
    ServerConfig config = dur_server(nullptr);
    config.dur.checkpoint_records = 0;
    return run_server(config, one_job_per_app(), suite).makespan;
  }();
  return makespan;
}

TEST(DurResumeTest, CheckpointWindowsJournalEveryJobToCompletion) {
  dur::JobJournal journal;
  const auto suite = make_toy_suite(kJobs, kRecords);
  const ServeReport report =
      run_server(dur_server(&journal), one_job_per_app(), suite);

  EXPECT_EQ(report.completed, kJobs);
  EXPECT_FALSE(report.crashed);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.chunks_replayed, 0u);
  ASSERT_EQ(journal.size(), kJobs);
  for (const auto& [job, cp] : journal.entries()) {
    EXPECT_TRUE(cp.complete) << "job " << job;
    EXPECT_EQ(cp.records_done, kRecords) << "job " << job;
    // Three mid-job record() writes plus the terminal mark_complete.
    EXPECT_EQ(cp.updates, kRecords / kWindow) << "job " << job;
    EXPECT_NE(cp.output_digest, 0u) << "job " << job;
  }
}

TEST(DurResumeTest, WindowedRunsMatchWholeJobResults) {
  // Windowing is a pure restartability seam: the same jobs run unwindowed
  // must produce the same completions (the toy runner self-checks results).
  dur::JobJournal journal;
  const auto suite = make_toy_suite(kJobs, kRecords);
  const ServeReport windowed =
      run_server(dur_server(&journal), one_job_per_app(), suite);
  ServerConfig whole = dur_server(nullptr);
  whole.dur.checkpoint_records = 0;
  const ServeReport unwindowed =
      run_server(whole, one_job_per_app(), suite);
  EXPECT_EQ(windowed.completed, unwindowed.completed);
  EXPECT_EQ(windowed.failed_jobs, 0u);
  EXPECT_EQ(unwindowed.failed_jobs, 0u);
}

TEST(DurResumeTest, CrashRestartResumesFromJournaledCheckpoints) {
  const auto specs = one_job_per_app();
  const auto runners = durable_runners();
  const auto suite = make_durable_toy_suite(runners);
  dur::JobJournal journal;

  // Run A: crash mid-workload. Window-granularity stop: in-flight windows
  // finish, then every unfinished job settles as failed so the run drains.
  ServerConfig crash_config = dur_server(&journal);
  crash_config.dur.crash_at = clean_makespan() / 2;
  const ServeReport crashed = run_server(crash_config, specs, suite);
  EXPECT_TRUE(crashed.crashed);
  EXPECT_GT(crashed.failed_jobs, 0u);
  EXPECT_LT(crashed.completed, kJobs);

  // The journal holds partial progress for at least one in-flight job.
  std::uint64_t partial = 0;
  std::uint64_t journaled = 0;
  for (const auto& [job, cp] : journal.entries()) {
    if (cp.records_done > 0) ++journaled;
    if (cp.records_done > 0 && !cp.complete) ++partial;
  }
  EXPECT_GT(partial, 0u) << "crash_at missed the in-flight window phase";
  const dur::JobJournal snapshot = journal;  // for the from-zero control

  // Run B: a fresh server over the same journal and the same (durable)
  // runners. Completed jobs verify-and-skip, in-flight jobs resume from
  // their checkpoints, and no journaled window is executed twice.
  const ServeReport resumed = run_server(dur_server(&journal), specs, suite);
  EXPECT_FALSE(resumed.crashed);
  EXPECT_EQ(resumed.completed, kJobs);
  EXPECT_EQ(resumed.failed_jobs, 0u);
  EXPECT_EQ(resumed.resumed, journaled);
  EXPECT_EQ(resumed.chunks_replayed, 0u);
  for (const JobRecord& record : resumed.jobs) {
    const dur::JobCheckpoint* cp = snapshot.find(record.spec.id);
    const bool expect_resumed = cp != nullptr && cp->records_done > 0;
    EXPECT_EQ(record.resumed, expect_resumed) << "job " << record.spec.id;
    EXPECT_TRUE(record.completed) << "job " << record.spec.id;
  }
  for (const auto& [job, cp] : journal.entries()) {
    EXPECT_TRUE(cp.complete) << "job " << job;
  }

  // Run C: the same crash journal, but fresh runners whose output storage
  // did not survive — every digest check fails, every job restarts from
  // record zero, and all journaled windows are replayed.
  dur::JobJournal lost_output = snapshot;
  const auto fresh_suite = make_toy_suite(kJobs, kRecords);
  const ServeReport restarted =
      run_server(dur_server(&lost_output), specs, fresh_suite);
  EXPECT_EQ(restarted.completed, kJobs);
  EXPECT_EQ(restarted.resumed, 0u);
  EXPECT_GT(restarted.chunks_replayed, 0u);
  // The acceptance bar: resume replays strictly fewer windows and finishes
  // strictly sooner than the restart-from-zero control.
  EXPECT_LT(resumed.chunks_replayed, restarted.chunks_replayed);
  EXPECT_LT(resumed.makespan, restarted.makespan);
}

TEST(DurResumeTest, CrashRestartIsDeterministicAcrossSeededRuns) {
  const auto specs = one_job_per_app();
  const auto run_once = [&specs] {
    const auto runners = durable_runners();
    const auto suite = make_durable_toy_suite(runners);
    dur::JobJournal journal;
    ServerConfig crash_config = dur_server(&journal);
    crash_config.dur.crash_at = clean_makespan() / 2;
    const ServeReport crashed = run_server(crash_config, specs, suite);
    const ServeReport resumed = run_server(dur_server(&journal), specs, suite);
    return std::tuple{crashed.completed, crashed.makespan, resumed.makespan,
                      resumed.resumed, resumed.chunks_replayed,
                      resumed.completion_order};
  };
  EXPECT_EQ(run_once(), run_once());
}

/// dur_server with spill on: at t=0 every job past the first admitted one
/// exceeds the spill depth and runs on the host cores.
ServerConfig spill_dur_server(dur::JobJournal* journal) {
  ServerConfig config = dur_server(journal);
  config.hetero.spill_enabled = true;
  config.hetero.spill_depth = 1;
  return config;
}

TEST(DurResumeTest, SpilledJobsCheckpointInWindows) {
  // ToyRunner::run_cpu verifies the output after the last window.
  dur::JobJournal journal;
  const auto suite = make_toy_suite(kJobs, kRecords);
  const ServeReport report =
      run_server(spill_dur_server(&journal), one_job_per_app(), suite);

  EXPECT_EQ(report.completed, kJobs);
  EXPECT_GT(report.spills, 0u);
  EXPECT_EQ(report.cpu_completed, report.spills);
  ASSERT_EQ(journal.size(), kJobs);
  for (const auto& [job, cp] : journal.entries()) {
    EXPECT_TRUE(cp.complete) << "job " << job;
    EXPECT_EQ(cp.records_done, kRecords) << "job " << job;
    // Spilled or not: three mid-job record() writes plus mark_complete.
    EXPECT_EQ(cp.updates, kRecords / kWindow) << "job " << job;
  }
}

TEST(DurResumeTest, RestartOverAFinishedJournalRunsNoJobAgain) {
  const auto specs = one_job_per_app();
  const auto runners = durable_runners();
  const auto suite = make_durable_toy_suite(runners);
  dur::JobJournal journal;
  const ServeReport first =
      run_server(spill_dur_server(&journal), specs, suite);
  ASSERT_EQ(first.completed, kJobs);

  const ServeReport second =
      run_server(spill_dur_server(&journal), specs, suite);
  EXPECT_EQ(second.completed, kJobs);
  EXPECT_GT(second.spills, 0u);
  EXPECT_EQ(second.resumed, kJobs);
  EXPECT_EQ(second.chunks_replayed, 0u);
  for (const JobRecord& record : second.jobs) {
    EXPECT_TRUE(record.resumed) << "job " << record.spec.id;
    // A window would stamp its execution time.
    EXPECT_EQ(record.exec_done_time, 0u) << "job " << record.spec.id;
  }
  for (const DeviceReport& device : second.devices) {
    EXPECT_EQ(device.kernel_launches, 0u);
  }
}

TEST(DurResumeTest, DeviceFailureResumesMidJobFromTheJournal) {
  // Same-incarnation resume: device 0 dies after the first checkpoint
  // windows landed; the redispatched jobs pick up from their checkpoints
  // (the runner object — and thus the output — survives a redispatch).
  dur::JobJournal journal;
  const auto suite = make_toy_suite(kJobs, kRecords);
  ServerConfig config = dur_server(&journal);
  config.fault_spec = "device_lost,nth=30,device=0,down_us=1";
  config.probe_interval = sim::DurationPs{50'000'000};  // 50 us
  const ServeReport report = run_server(config, one_job_per_app(), suite);

  EXPECT_EQ(report.completed, kJobs);
  EXPECT_EQ(report.failed_jobs, 0u);
  EXPECT_EQ(report.fault_recovered, report.fault_injected);
  EXPECT_GE(report.resumed, 1u)
      << "the redispatched job should resume from its checkpoint";
  EXPECT_EQ(report.chunks_replayed, 0u);
}

}  // namespace
}  // namespace bigk::serve
