"""Memory-divergence case study: diagnosing and fixing an AoS layout.

The scenario from the paper's case study (B): a particle-update kernel
reads interleaved array-of-structures data, so each warp access touches
many cache lines. CUDAAdvisor's divergence distribution pinpoints the
problem and the exact source line; switching to structure-of-arrays
coalesces the accesses. Both Kepler (128 B lines) and Pascal (32 B
sectors) views are shown, like Figure 5(a)/(b).

Run:  python examples/memory_divergence_tour.py
"""

import numpy as np

from repro import CUDAAdvisor, KEPLER_K40C, PASCAL_P100, GPUProgram
from repro.analysis.divergence_memory import (
    divergent_sites,
    memory_divergence_analysis,
)
from repro.analysis.report import render_divergence_distribution
from repro.frontend import f32, i32, kernel, ptr_f32
from repro.host import host_function

N = 2048
FIELDS = 8  # one "struct" = 8 floats


@kernel
def update_aos(particles: ptr_f32, out: ptr_f32, n: i32, dt: f32):
    """Array-of-structures: field 0 of record i lives at i*8 -- every
    warp load spans 8x more cache lines than necessary."""
    gid = ctaid_x * ntid_x + tid_x
    if gid < n:
        x = particles[gid * 8 + 0]
        v = particles[gid * 8 + 1]
        out[gid] = x + v * dt


@kernel
def update_soa(xs: ptr_f32, vs: ptr_f32, out: ptr_f32, n: i32, dt: f32):
    """Structure-of-arrays: consecutive threads read consecutive words."""
    gid = ctaid_x * ntid_x + tid_x
    if gid < n:
        out[gid] = xs[gid] + vs[gid] * dt


class _Base(GPUProgram):
    warps_per_cta = 8

    def check(self, rt, state) -> bool:
        out = rt.device.memcpy_dtoh(state["d_out"], np.float32, N)
        return bool(np.allclose(out, state["expected"], rtol=1e-5))


class AoSProgram(_Base):
    name = "particles_aos"
    kernels = (update_aos,)

    @host_function
    def prepare(self, rt):
        data = np.random.default_rng(5).random(
            N * FIELDS, dtype=np.float32
        )
        h = rt.host_wrap(data, "h_particles")
        d = rt.cuda_malloc(data.nbytes, "d_particles")
        d_out = rt.cuda_malloc(4 * N, "d_out")
        rt.cuda_memcpy_htod(d, h)
        expected = data[0::8] + data[1::8] * np.float32(0.5)
        return {"d_particles": d, "d_out": d_out, "expected": expected}

    @host_function
    def run(self, rt, image, state, l1_warps_per_cta=None):
        return [rt.launch_kernel(
            image, "update_aos", grid=N // 256, block=256,
            args=[state["d_particles"], state["d_out"], N, 0.5],
        )]


class SoAProgram(_Base):
    name = "particles_soa"
    kernels = (update_soa,)

    @host_function
    def prepare(self, rt):
        rng = np.random.default_rng(5)
        data = rng.random(N * FIELDS, dtype=np.float32)
        xs, vs = data[0::8].copy(), data[1::8].copy()
        h_xs = rt.host_wrap(xs, "h_xs")
        h_vs = rt.host_wrap(vs, "h_vs")
        d_xs = rt.cuda_malloc(xs.nbytes, "d_xs")
        d_vs = rt.cuda_malloc(vs.nbytes, "d_vs")
        d_out = rt.cuda_malloc(4 * N, "d_out")
        rt.cuda_memcpy_htod(d_xs, h_xs)
        rt.cuda_memcpy_htod(d_vs, h_vs)
        expected = xs + vs * np.float32(0.5)
        return {"d_xs": d_xs, "d_vs": d_vs, "d_out": d_out,
                "expected": expected}

    @host_function
    def run(self, rt, image, state, l1_warps_per_cta=None):
        return [rt.launch_kernel(
            image, "update_soa", grid=N // 256, block=256,
            args=[state["d_xs"], state["d_vs"], state["d_out"], N, 0.5],
        )]


def main():
    for arch in (KEPLER_K40C, PASCAL_P100):
        print("=" * 70)
        print(f"{arch.name} ({arch.l1_line_size}-byte cache lines)")
        print("=" * 70)
        for program in (AoSProgram(), SoAProgram()):
            # keep the raw records: the site lookup below re-analyzes
            # them with its own threshold
            advisor = CUDAAdvisor(arch=arch, modes=("memory",),
                                  measure_overhead=False, fused_drain=False)
            report = advisor.profile(program)
            print(render_divergence_distribution(
                program.name, report.memory_divergence
            ))
            profile = report.session.profiles[0]
            sites = divergent_sites(profile, arch.l1_line_size, threshold=3)
            if sites:
                worst = max(sites, key=sites.get)
                print(f"  -> most divergent access at "
                      f"{__file__.rsplit('/', 1)[-1]}:{worst[0]} "
                      f"({sites[worst]} warp events)")
            print()
    print("Fix: the SoA layout collapses the distribution to 1 line per "
          "warp access on Kepler.")


if __name__ == "__main__":
    main()
