//! Campaign mode: batch whole benchmark suites through an analysis
//! service's workers and reduce the per-job results into a single
//! JSON-serializable report.
//!
//! A campaign is a queue of named, self-contained jobs (one analysis of one
//! program — a boundary condition of the Glibc `sin` port, the overflow
//! study of one GSL special function, ...). Jobs are independent, so the
//! workers run them embarrassingly parallel; each job is internally
//! sequential with a fixed per-job seed derived from its queue position, so
//! the *deterministic* part of the report (what was found, at which inputs,
//! after how many evaluations) is bit-identical for every thread count —
//! only the timing fields change.

use serde::Serialize;
use std::sync::mpsc;
use std::time::Instant;
use wdm_core::boundary::{BoundaryAnalysis, BoundaryWeakDistance};
use wdm_core::driver::derive_round_seed;
use wdm_core::overflow::OverflowDetector;
use wdm_core::{minimize_weak_distance_adaptive, AnalysisConfig, BackendKind, Outcome};
use wdm_service::{AnalysisService, ServiceConfig, ServiceHandle};

/// The deterministic result of one campaign job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobResult {
    /// Job name, e.g. `"boundary/glibc_sin/k3"`.
    pub job: String,
    /// The analysis family (`"boundary"`, `"overflow"`).
    pub analysis: String,
    /// The program under analysis.
    pub program: String,
    /// How many targets (conditions, operation sites) were triggered.
    pub found: usize,
    /// How many targets were considered.
    pub total: usize,
    /// Best residual weak-distance value when a target was missed
    /// (0 when everything was found; capped to `f64::MAX` for JSON).
    pub best_value: f64,
    /// Objective evaluations spent.
    pub evals: usize,
    /// How many targets static analysis proved unreachable over the search
    /// domain and pruned before any minimizer ran (each charged zero
    /// evaluations).
    pub static_pruned: usize,
}

/// One finished job: the deterministic result plus its (nondeterministic)
/// wall-clock time.
#[derive(Debug, Clone, Serialize)]
pub struct JobReport {
    /// The deterministic result.
    pub result: JobResult,
    /// Wall-clock seconds this job took on its worker.
    pub seconds: f64,
}

/// The reduced result of a whole campaign.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock seconds.
    pub wall_seconds: f64,
    /// Sum of per-job wall-clock seconds (the sequential-equivalent time).
    pub cpu_seconds: f64,
    /// Total objective evaluations across every job.
    pub total_evals: usize,
    /// Number of jobs in which every target was triggered.
    pub jobs_fully_solved: usize,
    /// Per-job reports, in submission order regardless of scheduling.
    pub jobs: Vec<JobReport>,
}

impl CampaignReport {
    /// The deterministic portion of the report (everything except timing),
    /// in submission order — bit-identical across thread counts, which the
    /// determinism tests assert.
    pub fn deterministic_results(&self) -> Vec<JobResult> {
        self.jobs.iter().map(|j| j.result.clone()).collect()
    }

    /// Reduces a job list (in its given order) into a report.
    fn reduced(threads: usize, wall_seconds: f64, jobs: Vec<JobReport>) -> CampaignReport {
        let cpu_seconds = jobs.iter().map(|j| j.seconds).sum();
        let total_evals = jobs.iter().map(|j| j.result.evals).sum();
        let jobs_fully_solved = jobs
            .iter()
            .filter(|j| j.result.found == j.result.total)
            .count();
        CampaignReport {
            threads,
            wall_seconds,
            cpu_seconds,
            total_evals,
            jobs_fully_solved,
            jobs,
        }
    }

    /// Combines two reports — e.g. shards of one suite run on different
    /// machines, or a suite report with a follow-up rerun — into one.
    ///
    /// Merging is associative and order-insensitive: the combined job
    /// list is sorted by job name and every aggregate (including the
    /// floating-point `cpu_seconds` sum, whose summation order is the
    /// sorted job order) is recomputed from it, while `threads` and
    /// `wall_seconds` take the maximum. Any parenthesization of any
    /// permutation of the same reports therefore serializes to the
    /// identical JSON, which the campaign property tests pin down.
    pub fn merge(self, other: CampaignReport) -> CampaignReport {
        let threads = self.threads.max(other.threads);
        let wall_seconds = self.wall_seconds.max(other.wall_seconds);
        let mut jobs: Vec<JobReport> = self.jobs;
        jobs.extend(other.jobs);
        // The key is total over every field (floats by bit pattern), so
        // even reports with duplicate job names merge commutatively.
        let key = |j: &JobReport| {
            (
                j.result.job.clone(),
                j.result.analysis.clone(),
                j.result.program.clone(),
                j.result.found,
                j.result.total,
                j.result.best_value.to_bits(),
                j.result.evals,
                j.result.static_pruned,
                j.seconds.to_bits(),
            )
        };
        jobs.sort_by_key(key);
        CampaignReport::reduced(threads, wall_seconds, jobs)
    }
}

type JobFn = Box<dyn FnOnce(&AnalysisConfig) -> JobResult + Send + 'static>;

/// A named, self-contained unit of campaign work.
pub struct CampaignJob {
    name: String,
    run: JobFn,
}

impl CampaignJob {
    /// Wraps a closure as a campaign job.
    pub fn new(
        name: impl Into<String>,
        run: impl FnOnce(&AnalysisConfig) -> JobResult + Send + 'static,
    ) -> Self {
        CampaignJob {
            name: name.into(),
            run: Box::new(run),
        }
    }

    /// The job name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for CampaignJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignJob")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// A batch of analysis jobs sharing one base configuration.
#[derive(Debug)]
pub struct Campaign {
    config: AnalysisConfig,
    jobs: Vec<CampaignJob>,
}

impl Campaign {
    /// Creates an empty campaign. Each job will run with `config`, except
    /// that its seed is re-derived per job (from the campaign seed and the
    /// job's queue position) so jobs are decorrelated yet scheduling-free.
    pub fn new(config: AnalysisConfig) -> Self {
        Campaign {
            config,
            jobs: Vec::new(),
        }
    }

    /// Appends a job to the queue.
    pub fn push(&mut self, job: CampaignJob) {
        self.jobs.push(job);
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` if no job is queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The queued job names, in order.
    pub fn job_names(&self) -> Vec<&str> {
        self.jobs.iter().map(|j| j.name()).collect()
    }

    /// Runs every job on a private, short-lived analysis service of
    /// `threads` workers and reduces the results into one report (jobs
    /// ordered as submitted). Campaign mode is "submit suite, await
    /// report": to batch onto a shared long-running service instead,
    /// use [`Campaign::run_on`].
    pub fn run(self, threads: usize) -> CampaignReport {
        let service = AnalysisService::start(ServiceConfig::new(threads.max(1)));
        let report = self.run_on(&service.handle());
        service.shutdown();
        report
    }

    /// Submits every job to an already-running analysis service and
    /// blocks until the reduced report is in. Campaign jobs are opaque
    /// closures, so they ride the service's task lane: they run FIFO on
    /// the service's workers, each ahead of the next analysis turn and
    /// invisible to the analysis tenants.
    pub fn run_on(self, handle: &ServiceHandle) -> CampaignReport {
        let started = Instant::now();
        let threads = handle.threads();
        let n = self.jobs.len();
        let (sender, receiver) = mpsc::channel::<(usize, JobReport)>();
        for (index, job) in self.jobs.into_iter().enumerate() {
            let sender = sender.clone();
            // Per-job seed: decorrelated, independent of scheduling.
            let config = AnalysisConfig {
                seed: derive_round_seed(self.config.seed, 0x00C0_FFEE_0000_0000 | index as u64),
                ..self.config.clone()
            };
            handle
                .submit_task(move || {
                    let job_started = Instant::now();
                    let result = (job.run)(&config);
                    let report = JobReport {
                        result,
                        seconds: job_started.elapsed().as_secs_f64(),
                    };
                    // The receiver only disappears if the campaign itself
                    // panicked; nothing useful to do with the result then.
                    let _ = sender.send((index, report));
                })
                .expect("analysis service accepts campaign jobs");
        }
        drop(sender);

        let mut slots: Vec<Option<JobReport>> = (0..n).map(|_| None).collect();
        for (index, report) in receiver.iter() {
            slots[index] = Some(report);
        }

        let jobs: Vec<JobReport> = slots
            .into_iter()
            .map(|s| s.expect("every job reports exactly once"))
            .collect();
        CampaignReport::reduced(threads, started.elapsed().as_secs_f64(), jobs)
    }
}

fn finite(value: f64) -> f64 {
    if value.is_nan() {
        f64::MAX
    } else {
        value.clamp(f64::MIN, f64::MAX)
    }
}

/// A job triggering one specific boundary condition of `program`.
fn boundary_condition_job<P>(name: String, program: P, site: fp_runtime::BranchId) -> CampaignJob
where
    P: fp_runtime::Analyzable + 'static,
{
    CampaignJob::new(name.clone(), move |config| {
        let analysis = BoundaryAnalysis::new(program);
        let run = analysis.find_condition_run(site, config);
        let static_pruned = run.statically_pruned() as usize;
        let (found, best_value, evals) = match run.outcome {
            Outcome::Found { evals, .. } => (1, 0.0, evals),
            Outcome::NotFound {
                best_value, evals, ..
            } => (0, finite(best_value), evals),
        };
        JobResult {
            job: name,
            analysis: "boundary".to_string(),
            program: analysis.program().name().to_string(),
            found,
            total: 1,
            best_value,
            evals,
            static_pruned,
        }
    })
}

/// A job finding *any* boundary value of `program`.
fn boundary_any_job<P>(name: String, program: P) -> CampaignJob
where
    P: fp_runtime::Analyzable + 'static,
{
    CampaignJob::new(name.clone(), move |config| {
        let analysis = BoundaryAnalysis::new(program);
        let (found, best_value, evals) = match analysis.find_any(config) {
            Outcome::Found { evals, .. } => (1, 0.0, evals),
            Outcome::NotFound {
                best_value, evals, ..
            } => (0, finite(best_value), evals),
        };
        JobResult {
            job: name,
            analysis: "boundary".to_string(),
            program: analysis.program().name().to_string(),
            found,
            total: 1,
            best_value,
            evals,
            static_pruned: 0,
        }
    })
}

/// A job running the Algorithm 3 overflow study of `program`.
fn overflow_job<P>(name: String, program: P) -> CampaignJob
where
    P: fp_runtime::Analyzable + 'static,
{
    CampaignJob::new(name.clone(), move |config| {
        let detector = OverflowDetector::new(program);
        let report = detector.run(config);
        JobResult {
            job: name,
            analysis: "overflow".to_string(),
            program: detector.program().name().to_string(),
            found: report.num_overflows(),
            total: report.num_ops(),
            best_value: 0.0,
            evals: report.evals,
            static_pruned: report.statically_pruned,
        }
    })
}

/// A job running an adaptive backend *portfolio*
/// ([`wdm_core::adaptive`]) over `backends` on the boundary weak distance
/// of `program`. The winning backend's name is recorded in the `analysis`
/// field so reports show who solved what.
fn boundary_portfolio_job<P>(name: String, program: P, backends: Vec<BackendKind>) -> CampaignJob
where
    P: fp_runtime::Analyzable + 'static,
{
    CampaignJob::new(name.clone(), move |config| {
        let wd = BoundaryWeakDistance::new(program).with_kernel_policy(config.kernel_policy);
        let program_name = wd.program().name().to_string();
        let run = minimize_weak_distance_adaptive(&wd, config, &backends);
        let (found, best_value, evals) = match run.outcome() {
            Outcome::Found { evals, .. } => (1, 0.0, evals),
            Outcome::NotFound {
                best_value, evals, ..
            } => (0, finite(best_value), evals),
        };
        JobResult {
            job: name,
            analysis: format!("portfolio/{}", run.winning_backend().name()),
            program: program_name,
            found,
            total: 1,
            best_value,
            evals,
            static_pruned: 0,
        }
    })
}

/// Builds a portfolio campaign over the boundary problems of the GSL
/// suite's programs: each job runs `backends` as an adaptive portfolio,
/// so the report, including which backend won each job, is bit-identical
/// at any thread count.
pub fn gsl_portfolio_suite(config: &AnalysisConfig, backends: &[BackendKind]) -> Campaign {
    use mini_gsl::glibc_sin::GlibcSin;
    use mini_gsl::toy::{EqZeroProgram, Fig2Program};

    let mut campaign = Campaign::new(config.clone());
    campaign.push(boundary_portfolio_job(
        "portfolio/boundary/fig2".to_string(),
        Fig2Program::new(),
        backends.to_vec(),
    ));
    campaign.push(boundary_portfolio_job(
        "portfolio/boundary/eq_zero".to_string(),
        EqZeroProgram::new(),
        backends.to_vec(),
    ));
    campaign.push(boundary_portfolio_job(
        "portfolio/boundary/glibc_sin".to_string(),
        GlibcSin::new(),
        backends.to_vec(),
    ));
    campaign
}

/// Builds the full GSL benchmark campaign: every boundary condition of the
/// Glibc `sin` port, any-boundary analyses of the toy programs, and the
/// overflow studies of the three Table 3 special functions.
pub fn gsl_suite(config: &AnalysisConfig) -> Campaign {
    use mini_gsl::airy::AiryAi;
    use mini_gsl::bessel::BesselKnuScaled;
    use mini_gsl::glibc_sin::{GlibcSin, K_THRESHOLDS};
    use mini_gsl::hyperg::Hyperg2F0;
    use mini_gsl::toy::{EqZeroProgram, Fig2Program};

    let mut campaign = Campaign::new(config.clone());
    campaign.push(boundary_any_job(
        "boundary/fig2".to_string(),
        Fig2Program::new(),
    ));
    campaign.push(boundary_any_job(
        "boundary/eq_zero".to_string(),
        EqZeroProgram::new(),
    ));
    for (i, threshold) in K_THRESHOLDS.iter().enumerate() {
        campaign.push(boundary_condition_job(
            format!("boundary/glibc_sin/k_lt_{threshold:#010x}"),
            GlibcSin::new(),
            fp_runtime::BranchId(i as u32),
        ));
    }
    campaign.push(overflow_job(
        "overflow/bessel_Knu_scaled_asympx_e".to_string(),
        BesselKnuScaled::new(),
    ));
    campaign.push(overflow_job(
        "overflow/gsl_sf_hyperg_2F0_e".to_string(),
        Hyperg2F0::new(),
    ));
    campaign.push(overflow_job(
        "overflow/gsl_sf_airy_Ai_e".to_string(),
        AiryAi::new(),
    ));
    campaign
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> AnalysisConfig {
        AnalysisConfig::quick(3)
            .with_rounds(1)
            .with_max_evals(2_000)
    }

    #[test]
    fn suite_has_the_expected_shape() {
        let campaign = gsl_suite(&quick_config());
        assert_eq!(campaign.len(), 10);
        assert!(!campaign.is_empty());
        let names = campaign.job_names();
        assert!(names[0].starts_with("boundary/"));
        assert!(names[9].starts_with("overflow/"));
    }

    #[test]
    fn campaign_results_are_ordered_and_deterministic_across_threads() {
        let one = gsl_suite(&quick_config()).run(1);
        let four = gsl_suite(&quick_config()).run(4);
        assert_eq!(one.jobs.len(), 10);
        assert_eq!(one.deterministic_results(), four.deterministic_results());
        assert_eq!(one.total_evals, four.total_evals);
        // Jobs come back in submission order regardless of scheduling.
        assert_eq!(one.jobs[0].result.job, "boundary/fig2");
        assert!(one.jobs_fully_solved >= 1);
    }

    #[test]
    fn campaign_report_serializes() {
        let mut campaign = Campaign::new(quick_config());
        campaign.push(boundary_any_job(
            "boundary/fig2".to_string(),
            mini_gsl::toy::Fig2Program::new(),
        ));
        let report = campaign.run(2);
        let json = serde_json::to_string_pretty(&report).expect("serialize");
        assert!(json.contains("boundary/fig2"));
        assert!(json.contains("total_evals"));
    }

    #[test]
    fn adaptive_portfolio_campaign_is_deterministic_across_threads() {
        // The whole campaign report (including which backend won each
        // job) is bit-identical at any thread count.
        let config = quick_config();
        let backends = [BackendKind::BasinHopping, BackendKind::RandomSearch];
        let one = gsl_portfolio_suite(&config, &backends).run(1);
        let four = gsl_portfolio_suite(&config, &backends).run(4);
        assert_eq!(one.jobs.len(), 3);
        assert_eq!(one.deterministic_results(), four.deterministic_results());
        assert!(one.jobs[0].result.analysis.starts_with("portfolio/"));
        for job in &one.jobs {
            assert!(job.result.evals > 0);
        }
        // The boundary problems of the toy programs are easy: the
        // portfolio should solve at least one of them.
        assert!(one.jobs_fully_solved >= 1, "report: {:?}", one.jobs);
    }

    #[test]
    fn empty_campaign_runs() {
        let report = Campaign::new(quick_config()).run(3);
        assert!(report.jobs.is_empty());
        assert_eq!(report.total_evals, 0);
    }
}
