// Seeded synthetic fields modelled on the library's SDRBench stand-ins
// (src/fzmod/data/datasets.cc): the same lattice value noise, vortex,
// halo-ordered particle stream and log-normal density, in the same
// coordinates (the scaled catalog's extents), so a field has the
// statistics behind the paper's Table 3 figures. The code is a copy rather
// than a call, so a change to the library's generators never moves the
// benchmark's inputs.
//
// The seed shifts every generator's base seed, and with it the noise
// lattice and the particle halos' positions; seed 0 reproduces the
// library's catalog fields byte for byte.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "perfbench.hh"

namespace perfbench {

namespace {

u64 splitmix64(u64& state) {
  u64 z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

/// Base seed of a generator: the catalog's, shifted by the run's seed.
u64 base_seed(u64 catalog_seed, u64 seed) {
  return catalog_seed + seed * 0x9e3779b97f4a7c15ULL;
}

// ---- lattice value noise (as in datasets.cc) -------------------------------

u64 hash_coords(i64 x, i64 y, i64 z, u64 seed) {
  u64 h = seed;
  h ^= static_cast<u64>(x) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<u64>(y) * 0xc2b2ae3d27d4eb4fULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= static_cast<u64>(z) * 0x165667b19e3779f9ULL;
  h = (h ^ (h >> 31)) * 0xd6e8feb86659fd93ULL;
  return h ^ (h >> 32);
}

f64 lattice(i64 x, i64 y, i64 z, u64 seed) {
  return static_cast<f64>(hash_coords(x, y, z, seed) >> 11) * 0x1.0p-52 -
         1.0;
}

f64 smoothstep(f64 t) { return t * t * (3.0 - 2.0 * t); }

f64 value_noise(f64 x, f64 y, f64 z, u64 seed) {
  const i64 x0 = static_cast<i64>(std::floor(x));
  const i64 y0 = static_cast<i64>(std::floor(y));
  const i64 z0 = static_cast<i64>(std::floor(z));
  const f64 fx = smoothstep(x - static_cast<f64>(x0));
  const f64 fy = smoothstep(y - static_cast<f64>(y0));
  const f64 fz = smoothstep(z - static_cast<f64>(z0));
  f64 c[2][2][2];
  for (int dz = 0; dz < 2; ++dz) {
    for (int dy = 0; dy < 2; ++dy) {
      for (int dx = 0; dx < 2; ++dx) {
        c[dz][dy][dx] = lattice(x0 + dx, y0 + dy, z0 + dz, seed);
      }
    }
  }
  auto lerp = [](f64 a, f64 b, f64 t) { return a + (b - a) * t; };
  const f64 x00 = lerp(c[0][0][0], c[0][0][1], fx);
  const f64 x01 = lerp(c[0][1][0], c[0][1][1], fx);
  const f64 x10 = lerp(c[1][0][0], c[1][0][1], fx);
  const f64 x11 = lerp(c[1][1][0], c[1][1][1], fx);
  return lerp(lerp(x00, x01, fy), lerp(x10, x11, fy), fz);
}

f64 fractal_noise(f64 x, f64 y, f64 z, u64 seed, int octaves, f64 base_freq,
                  f64 roughness) {
  f64 sum = 0, amp = 1, norm = 0, freq = base_freq;
  for (int o = 0; o < octaves; ++o) {
    sum += amp * value_noise(x * freq, y * freq, z * freq,
                             seed + static_cast<u64>(o) * 7919);
    norm += amp;
    amp *= roughness;
    freq *= 2.0;
  }
  return sum / norm;
}

/// Octaves down to a finest lattice of about three grid cells.
int octaves_for(f64 base_freq, std::size_t cells) {
  int octaves = 1;
  f64 freq = base_freq;
  while (octaves < 8 && freq * 2.0 * 3.0 <= static_cast<f64>(cells)) {
    freq *= 2.0;
    ++octaves;
  }
  return octaves;
}

/// Run fn(lo, hi) over [0, n) on up to four threads.
template <class F>
void parallel_for(std::size_t n, F&& fn) {
  const std::size_t parts = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::jthread> threads;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t lo = n * p / parts, hi = n * (p + 1) / parts;
    if (lo < hi) threads.emplace_back([&fn, lo, hi] { fn(lo, hi); });
  }
}

/// The crop `ext` at `org` of a field over the whole extent `full`, whose
/// value at normalized coordinates (u, v, w) in [0, 1) is fn(u, v, w).
template <class F>
std::vector<f32> fill(dims3 full, dims3 ext, dims3 org, F&& fn) {
  std::vector<f32> out(ext.len());
  parallel_for(ext.y * ext.z, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t row = lo; row < hi; ++row) {
      const f64 v = static_cast<f64>(row % ext.y + org.y) /
                    static_cast<f64>(full.y);
      const f64 w = static_cast<f64>(row / ext.y + org.z) /
                    static_cast<f64>(full.z);
      f32* dst = out.data() + row * ext.x;
      for (std::size_t x = 0; x < ext.x; ++x) {
        const f64 u = static_cast<f64>(x + org.x) / static_cast<f64>(full.x);
        dst[x] = static_cast<f32>(fn(u, v, w));
      }
    }
  });
  return out;
}

// ---- per-dataset fields ----------------------------------------------------

/// CESM-ATM: a temperature-like level stack with a latitudinal trend
/// (variable 0) or a precipitation-like field, zero outside storm systems
/// (variable 1).
std::vector<f32> gen_cesm(int var, u64 seed, dims3 ext, dims3 org) {
  const dims3 full = catalog_dims(dataset::cesm);
  const u64 s = base_seed(0xce5a0000 + static_cast<u64>(var), seed);
  const int oct = octaves_for(8.0, full.x);
  if (var == 1) {
    return fill(full, ext, org, [=](f64 u, f64 v, f64 w) {
      const f64 g = fractal_noise(u * 6, v * 3, w, s, oct, 1.0, 0.4);
      const f64 x = g - 0.35;
      return x > 0 ? 5e-5 * x * x * (1.0 + 0.5 * w) : 0.0;
    });
  }
  return fill(full, ext, org, [=](f64 u, f64 v, f64 w) {
    const f64 trend = -std::cos(v * 3.14159265358979) * 0.8 - 0.6 * w;
    const f64 detail = fractal_noise(u * 8, v * 4, w * 2, s, oct, 1.0, 0.30);
    return 240.0 + 40.0 * (trend + 0.15 * detail);
  });
}

/// HACC: 1-D particle positions (variable 0, 1) emitted halo by halo, 512
/// particles per halo chunk, a tenth of the chunks diffuse background and
/// one halo member in twelve ejected far out. `ext.x` particles from
/// index `org.x` of the stream.
std::vector<f32> gen_hacc(int var, u64 seed, dims3 ext, dims3 org) {
  constexpr std::size_t chunk = 512;
  constexpr f64 box = 256.0;
  const u64 s = base_seed(0xacc00000 + static_cast<u64>(var), seed);
  const std::size_t first = org.x, last = org.x + ext.x;
  std::vector<f32> out(ext.x);
  const std::size_t c0 = first / chunk, c1 = (last + chunk - 1) / chunk;
  parallel_for(c1 - c0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = c0 + lo; c < c0 + hi; ++c) {
      prng r(s * 1315423911ULL + c * 2654435761ULL);
      const u64 h = hash_coords(static_cast<i64>(c), 17, 23, s);
      const bool background = (h & 0xff) < 26;
      const f64 center =
          box * (static_cast<f64>(hash_coords(static_cast<i64>(c), 3, 5, s)) /
                 1.8446744073709552e19);
      const f64 radius =
          background ? box * 0.15
                     : 0.15 + 0.6 * (static_cast<f64>(h % 97) / 97.0);
      for (std::size_t i = c * chunk; i < (c + 1) * chunk; ++i) {
        const bool ejected = !background && r.below(12) == 0;
        const f64 spread = ejected ? radius * 25.0 : radius;
        f64 value = center + spread * r.normal();
        value -= box * std::floor(value / box);  // periodic box
        if (i >= first && i < last) out[i - first] = static_cast<f32>(value);
      }
    }
  });
  return out;
}

/// Hurricane ISABEL: a Rankine-like vortex over multi-octave turbulence,
/// as tangential wind (variable 0) or a pressure-like scalar (variable 1).
std::vector<f32> gen_hurr(int var, u64 seed, dims3 ext, dims3 org) {
  const dims3 full = catalog_dims(dataset::hurr);
  const u64 s = base_seed(0x15abe100 + static_cast<u64>(var), seed);
  const f64 rough = 0.38 + 0.04 * var;
  const f64 eye_u = 0.45 + 0.02 * var;
  const f64 eye_v = 0.55 - 0.02 * var;
  const bool wind = var == 0;
  const int oct = octaves_for(12.0, full.x);
  return fill(full, ext, org, [=](f64 u, f64 v, f64 w) {
    const f64 du = u - eye_u;
    const f64 dv = v - eye_v;
    const f64 rr = std::sqrt(du * du + dv * dv) + 1e-6;
    const f64 vort =
        60.0 * (rr / 0.08) * std::exp(1.0 - rr / 0.08) * (1.0 - 0.5 * w);
    const f64 turb = fractal_noise(u * 12, v * 12, w * 6, s, oct, 1.0, rough);
    if (wind) return vort * (-dv / rr) + 2.5 * turb;
    return 900.0 - 0.4 * vort + 8.0 * turb - 300.0 * w;
  });
}

/// Nyx: log-normal baryon density, void-dominated with filaments carrying
/// four to five decades of dynamic range.
std::vector<f32> gen_nyx(int var, u64 seed, dims3 ext, dims3 org) {
  const dims3 full = catalog_dims(dataset::nyx);
  const u64 s = base_seed(0x00ba5eed + static_cast<u64>(var), seed);
  const f64 contrast = 20.0 + 1.0 * var;
  const int oct = octaves_for(4.0, full.x);
  return fill(full, ext, org, [=](f64 u, f64 v, f64 w) {
    const f64 g = fractal_noise(u * 4, v * 4, w * 4, s, oct, 1.0, 0.5);
    return std::exp(contrast * (g - 0.3));
  });
}

}  // namespace

prng::prng(u64 seed) {
  u64 sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
}

u64 prng::next_u64() {
  const u64 result = rotl(s_[1] * 5, 7) * 9;
  const u64 t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

f64 prng::normal() {
  if (have_cached_) {
    have_cached_ = false;
    return cached_;
  }
  f64 u1 = uniform();
  const f64 u2 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const f64 r = std::sqrt(-2.0 * std::log(u1));
  const f64 theta = 6.283185307179586 * u2;
  cached_ = r * std::sin(theta);
  have_cached_ = true;
  return r * std::cos(theta);
}

dims3 catalog_dims(dataset ds) {
  switch (ds) {
    case dataset::cesm: return {450, 225, 13};
    case dataset::hacc: return {2097152, 1, 1};
    case dataset::hurr: return {250, 250, 50};
    case dataset::nyx: return {128, 128, 128};
  }
  return {};
}

std::vector<f32> make_field(dataset ds, int var, u64 seed, dims3 ext,
                            dims3 org) {
  switch (ds) {
    case dataset::cesm: return gen_cesm(var, seed, ext, org);
    case dataset::hacc: return gen_hacc(var, seed, ext, org);
    case dataset::hurr: return gen_hurr(var, seed, ext, org);
    case dataset::nyx: return gen_nyx(var, seed, ext, org);
  }
  return {};
}

u64 digest(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  u64 h = 0x243f6a8885a308d3ULL ^ n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h ^ (h >> 31);
}

bool within_rel_bound(const std::vector<f32>& orig,
                      const std::vector<f32>& recon, f64 eb) {
  if (orig.size() != recon.size() || orig.empty()) return false;
  const auto [mn, mx] = std::minmax_element(orig.begin(), orig.end());
  const f64 max_abs = std::max(std::fabs(*mn), std::fabs(*mx));
  const f64 bound = eb * (static_cast<f64>(*mx) - static_cast<f64>(*mn)) +
                    std::ldexp(max_abs, -23);
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const f64 err = std::fabs(static_cast<f64>(orig[i]) -
                              static_cast<f64>(recon[i]));
    if (!(err <= bound)) return false;
  }
  return true;
}

}  // namespace perfbench
