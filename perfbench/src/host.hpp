#pragma once
// Host placement for the measured thread, and the reference probe that
// expresses its host times on a reference host.
//
// On a shared host each CPU is slowed in phases, seconds long, by work
// outside this process, and the phases of different CPUs are largely
// independent.  Before each simulation the benchmark times a small fixed
// probe on every CPU it may use and moves its (only) thread to the
// fastest, so that a simulation is measured where interference is
// lowest.  The probe is the benchmark's own code and shares nothing with
// the simulator, so a change to the program cannot move it.

namespace perfbench {

/// Pin the calling thread to the allowed CPU where the probe runs fastest;
/// returns the probe's time there, in seconds.
double move_to_quietest_cpu();

/// Interference also drifts over minutes, and then it slows every CPU
/// for a whole run.  So each timed stretch is bracketed by the reference
/// probe, a fixed event-queue-shaped loop (see host.cpp), and the time is
/// rescaled to a host on which the probe takes kReferenceProbeSeconds:
/// `t * kReferenceProbeSeconds / probe`.  The probe is the benchmark's own
/// code and allocates from a buffer of its own, so a change to the
/// program moves the rescaled time exactly as it moves the raw one.
inline constexpr double kReferenceProbeSeconds = 0.002;

/// Host time of the reference probe (the median of a few runs), in seconds.
double reference_probe_seconds();

/// `seconds` of host time measured between two reference probes that took
/// `probe_before` and `probe_after`, rescaled to the reference host.
double on_reference_host(double seconds, double probe_before,
                         double probe_after);

}  // namespace perfbench
