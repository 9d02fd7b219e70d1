// A fixed reference kernel that tells how fast the machine runs right now.
//
// On a machine that shares its cores and caches with other tenants the
// same code runs at different speeds from one minute to the next (here,
// wan64 read from 1.0 to 1.55 s per run over half an hour), and wall and
// process CPU time both follow. The kernel is a dependent walk through a
// 3 MiB table with a data-dependent indirect call per step, so it slows
// with the caches and the core the way the simulator does, but it never
// calls into the library: a change to src/ cannot move it. main.cpp
// times it just before and just after every measurement and scales the
// measured time by kReferenceNominalS / (its time), i.e. to a machine on
// which one pass takes exactly kReferenceNominalS.
#pragma once

namespace perfbench {

// About the median pass on the 4-core x86-64 container the benchmark was
// written on; only the scale of the reported times depends on it.
inline constexpr double kReferenceNominalS = 0.005;

// Median wall seconds of `passes` reference passes.
[[nodiscard]] double reference_s(int passes);

}  // namespace perfbench
