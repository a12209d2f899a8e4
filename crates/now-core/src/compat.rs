//! The names the retired worker pool left behind, with no behaviour.
//!
//! The step-anatomy benchmark (`bench/`) is frozen between benchmark
//! changes and compiles against them, so they stay — hidden from the
//! docs, undeprecated (the benchmark lints with `-D warnings`) — until
//! the next change to the benchmark deletes them. This is the whole
//! surface; nothing else in the workspace names it:
//!
//! * [`WavePool::new`], which holds no threads;
//! * the lifetime parameter of [`ExecConfig`], carried by its
//!   uninhabited `Retired` variant;
//! * [`ExecConfig::scheduled`], [`ExecConfig::pooled`] and
//!   [`ExecConfig::event_in`], the engines they always named;
//! * [`wave_worker_spawn_total`] and [`wave_plan_nanos_total`], which
//!   always return 0;
//! * `now_campaign::Campaign::run`, whose thread count is ignored.

use crate::exec::ExecConfig;
use now_net::EventNetConfig;

/// Holds nothing: every op runs live on the driving thread.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct WavePool;

impl WavePool {
    /// A pool of no threads, whatever `threads` asks for.
    pub fn new(_threads: usize) -> Self {
        WavePool
    }
}

#[doc(hidden)]
impl<'p> ExecConfig<'p> {
    /// [`ExecConfig::Pooled`].
    pub fn scheduled() -> Self {
        ExecConfig::Pooled
    }

    /// [`ExecConfig::Pooled`]; the pool is not used.
    pub fn pooled(_pool: &'p WavePool) -> Self {
        ExecConfig::Pooled
    }

    /// [`ExecConfig::Event`] on `net`; the pool is not used.
    pub fn event_in(net: EventNetConfig, _pool: &'p WavePool) -> Self {
        ExecConfig::Event { net }
    }
}

/// Always 0: no worker thread is ever spawned.
#[doc(hidden)]
pub fn wave_worker_spawn_total() -> u64 {
    0
}

/// Always 0: no wave is planned.
#[doc(hidden)]
pub fn wave_plan_nanos_total() -> u64 {
    0
}
