//! `Timed<T>`: a [`ScheduledTrainer`] that delegates every method and
//! counts calls and busy time around the ones the engines call per
//! dispatch. Wrappers nest — `Timed<Byz<Timed<Quant<Timed<Synthetic>>>>>`
//! — and a plane's self time is its level's busy time minus the next
//! level's ([`crate::stats::self_times`]). Only the traced pass uses it:
//! the gated runs drive the bare trainers.

use fp_fl::byz::{ByzPolicy, RobustStats};
use fp_fl::{FlEnv, QuantConfig, QuantLoss, QuantState, ScheduledTrainer};
use fp_hwsim::{LatencyModel, PayloadSpec};
use fp_nn::CascadeModel;
use fp_tensor::BackendHandle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Calls and busy nanoseconds of one trainer method.
#[derive(Debug, Default)]
pub struct Method {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Method {
    // Relaxed: the counters are statistics read after the run's threads
    // have been joined; they publish no other data.
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

/// Per-method counters of one nesting level.
#[derive(Debug, Default)]
pub struct Methods {
    pub train: Method,
    pub merge: Method,
    pub cost: Method,
    pub payload_spec: Method,
    pub payload_params: Method,
}

impl Methods {
    /// Busy time of every timed method of this level.
    pub fn busy_ns(&self) -> u64 {
        self.train.busy_ns()
            + self.merge.busy_ns()
            + self.cost.busy_ns()
            + self.payload_spec.busy_ns()
            + self.payload_params.busy_ns()
    }
}

/// The timing wrapper. `inner` is public like the plane wrappers' own
/// `inner`, so a finished run reads every level's counters through the
/// scheduler's `trainer` field.
#[derive(Debug, Default)]
pub struct Timed<T> {
    pub inner: T,
    pub methods: Methods,
}

impl<T> Timed<T> {
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            methods: Methods::default(),
        }
    }
}

impl<T: ScheduledTrainer> ScheduledTrainer for Timed<T> {
    type Update = T::Update;
    type ServerState = T::ServerState;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cost(&self, env: &FlEnv, t: usize, k: usize) -> LatencyModel {
        self.methods.cost.time(|| self.inner.cost(env, t, k))
    }

    fn payload_spec(&self, env: &FlEnv, t: usize, k: usize) -> PayloadSpec {
        self.methods
            .payload_spec
            .time(|| self.inner.payload_spec(env, t, k))
    }

    fn payload_params(
        &self,
        env: &FlEnv,
        state: &Self::ServerState,
        t: usize,
        k: usize,
    ) -> Vec<f32> {
        self.methods
            .payload_params
            .time(|| self.inner.payload_params(env, state, t, k))
    }

    fn init(&self, env: &FlEnv) -> Self::ServerState {
        self.inner.init(env)
    }

    fn global_model<'a>(&self, state: &'a Self::ServerState) -> &'a CascadeModel {
        self.inner.global_model(state)
    }

    fn global_model_mut<'a>(&self, state: &'a mut Self::ServerState) -> &'a mut CascadeModel {
        self.inner.global_model_mut(state)
    }

    fn train(
        &self,
        env: &FlEnv,
        state: &Self::ServerState,
        t: usize,
        k: usize,
        lr: f32,
        backend: BackendHandle,
    ) -> (Self::Update, f32) {
        self.methods
            .train
            .time(|| self.inner.train(env, state, t, k, lr, backend))
    }

    fn merge_weighted(
        &self,
        env: &FlEnv,
        state: &mut Self::ServerState,
        t: usize,
        updates: Vec<(usize, Self::Update)>,
        weights: &[f32],
    ) {
        self.methods
            .merge
            .time(|| self.inner.merge_weighted(env, state, t, updates, weights));
    }

    // `merge` goes to the inner trainer's own `merge` (it may override
    // the FedAvg default) and lands in the same counter.
    fn merge(
        &self,
        env: &FlEnv,
        state: &mut Self::ServerState,
        t: usize,
        updates: Vec<(usize, Self::Update)>,
    ) {
        self.methods
            .merge
            .time(|| self.inner.merge(env, state, t, updates));
    }

    fn byz_policy(&self) -> Option<ByzPolicy> {
        self.inner.byz_policy()
    }

    fn take_robust_stats(&self) -> RobustStats {
        self.inner.take_robust_stats()
    }

    fn quant_policy(&self) -> Option<QuantConfig> {
        self.inner.quant_policy()
    }

    fn quant_up_bytes(&self, spec: &PayloadSpec) -> Option<u64> {
        self.inner.quant_up_bytes(spec)
    }

    fn quant_invalidate(&self, k: usize, cause: QuantLoss) {
        self.inner.quant_invalidate(k, cause);
    }

    fn quant_state(&self) -> Option<QuantState> {
        self.inner.quant_state()
    }

    fn restore_quant(&self, state: &QuantState) {
        self.inner.restore_quant(state);
    }

    fn reset_quant(&self) {
        self.inner.reset_quant();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::self_times;
    use fp_fl::{ByzTrainer, EventScheduler, RobustRule, SchedConfig, SyntheticTrainer};

    /// A wrapped run is the same run: the wrapper changes no result, and
    /// every nesting level sees every call.
    #[test]
    fn nested_wrappers_count_calls_and_leave_the_run_unchanged() {
        let env = fp_bench::envs::fleet_env(64, 5, 3);
        let bare = EventScheduler::new(
            ByzTrainer::new(SyntheticTrainer, RobustRule::FedAvg, None),
            SchedConfig::default(),
        )
        .run(&env);
        let sched = EventScheduler::new(
            Timed::new(ByzTrainer::new(
                Timed::new(SyntheticTrainer),
                RobustRule::FedAvg,
                None,
            )),
            SchedConfig::default(),
        );
        let timed = sched.run(&env);
        assert_eq!(
            fp_fl::model_hash(&bare.model),
            fp_fl::model_hash(&timed.model)
        );
        assert_eq!(bare.ledger, timed.ledger);

        let outer = &sched.trainer.methods;
        let inner = &sched.trainer.inner.inner.methods;
        let dispatches = (env.cfg.rounds * env.cfg.clients_per_round) as u64;
        assert_eq!(outer.train.calls(), dispatches);
        assert_eq!(inner.train.calls(), dispatches);
        assert_eq!(outer.merge.calls(), env.cfg.rounds as u64);
        assert_eq!(inner.merge.calls(), env.cfg.rounds as u64);
        let selfs = self_times(&[outer.busy_ns(), inner.busy_ns()]);
        assert_eq!(selfs[1], inner.busy_ns());
        assert!(selfs[0] + selfs[1] >= outer.busy_ns().min(inner.busy_ns()));
    }
}
