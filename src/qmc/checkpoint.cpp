// Crash-consistent checkpoint/restore + fault injection (see checkpoint.h
// for the format and the consistency argument).  This translation unit is
// the ONLY place in src/ that touches checkpoint files on disk — enforced
// by the `checkpoint-io` lint rule.
#include "qmc/checkpoint.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "qmc/crowd_sweep.h"
#include "qmc/miniqmc_context.h"

namespace mqc::ckpt {

// --------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven
// --------------------------------------------------------------------------

namespace {

std::array<std::uint32_t, 256> make_crc_table() noexcept
{
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    t[i] = c;
  }
  return t;
}

} // namespace

std::uint32_t crc32(const void* data, std::size_t len) noexcept
{
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i)
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

const char* load_error_name(LoadError e) noexcept
{
  switch (e) {
  case LoadError::None: return "none";
  case LoadError::Open: return "open";
  case LoadError::Magic: return "magic";
  case LoadError::Version: return "version";
  case LoadError::Header: return "header";
  case LoadError::ConfigHash: return "config-hash";
  case LoadError::Truncated: return "truncated";
  case LoadError::SectionCrc: return "section-crc";
  case LoadError::Layout: return "layout";
  }
  return "unknown";
}

// --------------------------------------------------------------------------
// File I/O
// --------------------------------------------------------------------------

namespace {

constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4 + 4; // magic..count + crc
constexpr std::size_t kSectionHeadSize = 4 + 4 + 8 + 4; // id, index, len, crc

bool read_file(const std::string& path, std::vector<std::uint8_t>& out)
{
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f)
    return false;
  out.clear();
  std::array<std::uint8_t, 1 << 16> buf;
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0)
    out.insert(out.end(), buf.data(), buf.data() + n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file(const std::string& path, const std::uint8_t* data, std::size_t size)
{
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f)
    return false;
  const bool wrote = size == 0 || std::fwrite(data, 1, size, f) == size;
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  return wrote && flushed && closed;
}

std::vector<std::uint8_t> serialize_snapshot(const Snapshot& snap)
{
  BlobWriter head;
  head.raw(kMagic, sizeof kMagic);
  head.u32(kFormatVersion);
  head.u64(snap.config_hash);
  head.u32(static_cast<std::uint32_t>(snap.sections.size()));
  std::vector<std::uint8_t> bytes = head.take();
  const std::uint32_t hcrc = crc32(bytes.data(), bytes.size());
  BlobWriter body;
  body.u32(hcrc);
  for (const auto& s : snap.sections) {
    body.u32(static_cast<std::uint32_t>(s.id));
    body.u32(s.index);
    body.u64(static_cast<std::uint64_t>(s.payload.size()));
    body.u32(crc32(s.payload.data(), s.payload.size()));
    body.raw(s.payload.data(), s.payload.size());
  }
  const std::vector<std::uint8_t> rest = body.take();
  bytes.insert(bytes.end(), rest.begin(), rest.end());
  return bytes;
}

std::string hex16(std::uint64_t v)
{
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

LoadResult parse_snapshot(const std::string& path, const std::vector<std::uint8_t>& bytes,
                          std::uint64_t expected_config_hash, Snapshot& out)
{
  LoadResult res;
  res.path_used = path;
  auto fail = [&](LoadError e, const std::string& detail) {
    res.error = e;
    res.detail = path + ": " + detail;
    return res;
  };
  if (bytes.size() < kHeaderSize)
    return fail(LoadError::Truncated, "file shorter than the checkpoint header");
  BlobReader r(bytes.data(), bytes.size());
  char magic[8];
  r.raw(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    return fail(LoadError::Magic, "not a checkpoint file (bad magic)");
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion)
    return fail(LoadError::Version,
                "format version " + std::to_string(version) + " (this build reads " +
                    std::to_string(kFormatVersion) + ")");
  const std::uint64_t config_hash = r.u64();
  const std::uint32_t count = r.u32();
  const std::uint32_t stored_hcrc = r.u32();
  if (stored_hcrc != crc32(bytes.data(), kHeaderSize - 4))
    return fail(LoadError::Header, "header CRC mismatch");
  if (config_hash != expected_config_hash)
    return fail(LoadError::ConfigHash,
                "snapshot was written by a different configuration (config hash " +
                    hex16(config_hash) + ", this run expects " + hex16(expected_config_hash) +
                    ")");

  out.config_hash = config_hash;
  out.sections.clear();
  out.sections.reserve(count);
  std::size_t off = kHeaderSize;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (bytes.size() - off < kSectionHeadSize)
      return fail(LoadError::Truncated, "file ends inside section header " + std::to_string(i));
    BlobReader sh(bytes.data() + off, kSectionHeadSize);
    Section s;
    s.id = static_cast<SectionId>(sh.u32());
    s.index = sh.u32();
    const std::uint64_t len = sh.u64();
    const std::uint32_t stored_crc = sh.u32();
    off += kSectionHeadSize;
    if (bytes.size() - off < len)
      return fail(LoadError::Truncated, "file ends inside section payload " + std::to_string(i));
    s.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                     bytes.begin() + static_cast<std::ptrdiff_t>(off + len));
    off += len;
    if (stored_crc != crc32(s.payload.data(), s.payload.size()))
      return fail(LoadError::SectionCrc, "CRC mismatch in section " + std::to_string(i) +
                                             " (id " + std::to_string(static_cast<int>(s.id)) +
                                             ", index " + std::to_string(s.index) + ")");
    out.sections.push_back(std::move(s));
  }
  return res;
}

} // namespace

bool write_snapshot(const std::string& path, const Snapshot& snap, std::string* error)
{
  const std::vector<std::uint8_t> bytes = serialize_snapshot(snap);
  const std::string tmp = path + ".tmp";
  if (!write_file(tmp, bytes.data(), bytes.size())) {
    if (error)
      *error = "cannot write " + tmp;
    std::remove(tmp.c_str());
    return false;
  }
  // Rotate: the previous snapshot survives as `.prev` until the NEXT write,
  // so the loader always has a last-good fallback one generation back.
  const std::string prev = path + ".prev";
  std::remove(prev.c_str());
  std::rename(path.c_str(), prev.c_str()); // may fail on the first write: fine
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error)
      *error = "cannot rename " + tmp + " -> " + path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

LoadResult read_snapshot(const std::string& path, std::uint64_t expected_config_hash,
                         Snapshot& out)
{
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, bytes)) {
    LoadResult res;
    res.error = LoadError::Open;
    res.detail = path + ": cannot open";
    res.path_used = path;
    return res;
  }
  return parse_snapshot(path, bytes, expected_config_hash, out);
}

LoadResult read_snapshot_with_fallback(const std::string& path,
                                       std::uint64_t expected_config_hash, Snapshot& out)
{
  LoadResult primary = read_snapshot(path, expected_config_hash, out);
  if (primary.loaded())
    return primary;
  LoadResult prev = read_snapshot(path + ".prev", expected_config_hash, out);
  if (prev.loaded()) {
    prev.fallback_used = true;
    prev.detail = "primary rejected (" + primary.detail + "); resumed from .prev";
    return prev;
  }
  primary.detail += "; fallback " + prev.detail;
  return primary;
}

// --------------------------------------------------------------------------
// Fault injection
// --------------------------------------------------------------------------

FaultPlan parse_fault_plan(const std::string& spec)
{
  FaultPlan plan;
  std::size_t pos = 0;
  auto warn = [](const std::string& tok, const char* why) {
    std::fprintf(stderr, "miniqmc: ignoring malformed MQC_FAULT_INJECT token '%s' (%s)\n",
                 tok.c_str(), why);
  };
  while (pos <= spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos)
      end = spec.size();
    std::string tok = spec.substr(pos, end - pos);
    pos = end + 1;
    // trim
    while (!tok.empty() && (tok.front() == ' ' || tok.front() == '\t'))
      tok.erase(tok.begin());
    while (!tok.empty() && (tok.back() == ' ' || tok.back() == '\t'))
      tok.pop_back();
    if (tok.empty()) {
      if (pos > spec.size())
        break;
      continue;
    }
    const std::size_t at = tok.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= tok.size()) {
      warn(tok, "expected kind@arg");
      continue;
    }
    const std::string kind = tok.substr(0, at);
    const std::string arg = tok.substr(at + 1);
    auto parse_int = [](const std::string& s, int& out_val) {
      // Digits only — strtol would also accept "+3", "-0" and leading
      // whitespace, silently arming a step the harness never asked for
      // (signed forms are operator typos, not valid fault specs).
      if (s.empty() || s.size() > 10)
        return false;
      long v = 0;
      for (const char c : s) {
        if (c < '0' || c > '9')
          return false;
        v = v * 10 + (c - '0');
      }
      if (v > 1000000000L)
        return false;
      out_val = static_cast<int>(v);
      return true;
    };
    if (kind == "abort") {
      if (!parse_int(arg, plan.abort_at_step))
        warn(tok, "abort needs a non-negative step number");
    } else if (kind == "truncate") {
      if (!parse_int(arg, plan.truncate_tail))
        warn(tok, "truncate needs a non-negative byte count");
    } else if (kind == "corrupt") {
      if (arg == "header")
        plan.corrupt_header = true;
      else if (arg == "meta")
        plan.corrupt_meta = true;
      else if (arg.rfind("walker", 0) == 0) {
        if (!parse_int(arg.substr(6), plan.corrupt_walker))
          warn(tok, "corrupt@walker needs a walker id");
      } else
        warn(tok, "corrupt target must be header|meta|walker<i>");
    } else {
      warn(tok, "unknown fault kind");
    }
    if (pos > spec.size())
      break;
  }
  return plan;
}

namespace {

/// Byte offset of the payload of the first (id, index) section, or npos.
std::size_t section_payload_offset(const std::vector<std::uint8_t>& bytes, std::uint32_t want_id,
                                   std::uint32_t want_index, std::size_t* len_out)
{
  std::size_t off = kHeaderSize;
  while (bytes.size() - off >= kSectionHeadSize && off < bytes.size()) {
    BlobReader sh(bytes.data() + off, kSectionHeadSize);
    const std::uint32_t id = sh.u32();
    const std::uint32_t index = sh.u32();
    const std::uint64_t len = sh.u64();
    (void)sh.u32();
    off += kSectionHeadSize;
    if (bytes.size() - off < len)
      return std::string::npos;
    if (id == want_id && index == want_index) {
      if (len_out)
        *len_out = static_cast<std::size_t>(len);
      return off;
    }
    off += static_cast<std::size_t>(len);
  }
  return std::string::npos;
}

} // namespace

bool apply_file_faults(const std::string& path, const FaultPlan& plan)
{
  if (!plan.corrupt_header && !plan.corrupt_meta && plan.corrupt_walker < 0 &&
      plan.truncate_tail <= 0)
    return true;
  // Every requested damage token is individually confirmed or loudly
  // reported as a NO-OP on stderr: a fault that silently fails to fire lets
  // a harness scenario "pass" while injecting nothing (the out-of-range
  // `corrupt@walker<i>` bug) — tools/fault_harness.py treats an unconfirmed
  // injection as a failure.
  bool all_applied = true;
  auto applied = [&](const char* what) {
    std::fprintf(stderr, "miniqmc: fault-injected: %s (%s)\n", what, path.c_str());
  };
  auto noop = [&](const char* what, const char* why) {
    std::fprintf(stderr, "miniqmc: fault-injection NO-OP: %s (%s: %s)\n", what, why,
                 path.c_str());
    all_applied = false;
  };
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, bytes)) {
    noop("corrupt/truncate", "snapshot file unreadable");
    return false;
  }
  auto flip = [&](std::size_t off) {
    if (off < bytes.size())
      bytes[off] ^= 0x5au;
  };
  if (plan.corrupt_header) {
    if (bytes.size() > 12) {
      flip(12); // inside the config-hash field
      applied("corrupt@header");
    } else {
      noop("corrupt@header", "file shorter than the header");
    }
  }
  if (plan.corrupt_meta) {
    std::size_t len = 0;
    const std::size_t off =
        section_payload_offset(bytes, static_cast<std::uint32_t>(SectionId::Meta), 0, &len);
    if (off != std::string::npos && len > 0) {
      flip(off + len / 2);
      applied("corrupt@meta");
    } else {
      noop("corrupt@meta", "snapshot has no meta section");
    }
  }
  if (plan.corrupt_walker >= 0) {
    std::size_t len = 0;
    const std::size_t off =
        section_payload_offset(bytes, static_cast<std::uint32_t>(SectionId::Walker),
                               static_cast<std::uint32_t>(plan.corrupt_walker), &len);
    char what[64];
    std::snprintf(what, sizeof what, "corrupt@walker%d", plan.corrupt_walker);
    if (off != std::string::npos && len > 0) {
      flip(off + len / 2);
      applied(what);
    } else {
      noop(what, "snapshot has no such walker section (id >= population?)");
    }
  }
  if (plan.truncate_tail > 0) {
    const auto cut = static_cast<std::size_t>(plan.truncate_tail);
    bytes.resize(cut >= bytes.size() ? 0 : bytes.size() - cut);
    applied("truncate");
  }
  if (!write_file(path, bytes.data(), bytes.size())) {
    noop("corrupt/truncate", "snapshot rewrite failed");
    return false;
  }
  return all_applied;
}

} // namespace mqc::ckpt

// ==========================================================================
// Driver glue: walker (de)serialization, config hash, epoch protocol
// ==========================================================================

namespace mqc::detail {

namespace {

using ckpt::BlobReader;
using ckpt::BlobWriter;
using ckpt::Section;
using ckpt::SectionId;
using ckpt::Snapshot;

// FNV-1a 64-bit over the trajectory-determining config fields.
struct Fnv1a
{
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) noexcept
  {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
};

constexpr std::uint8_t kDetSherman = 0;
constexpr std::uint8_t kDetDelayed = 1;

void serialize_det(BlobWriter& w, const DetUpdater& det)
{
  const int n = det.size();
  w.u32(static_cast<std::uint32_t>(n));
  if (det.kind() == DetUpdateKind::Delayed) {
    const DelayedDeterminant& d = det.delayed();
    w.u8(kDetDelayed);
    w.raw(d.base_inverse().data(), static_cast<std::size_t>(n) * n * sizeof(double));
    w.raw(d.base_matrix().data(), static_cast<std::size_t>(n) * n * sizeof(double));
    w.f64(d.log_det());
    w.f64(d.sign());
    const auto k = static_cast<std::uint32_t>(d.pending_columns().size());
    w.u32(k);
    for (const int c : d.pending_columns())
      w.i32(c);
    auto panel = [&](const std::vector<std::vector<double>>& cols) {
      for (const auto& col : cols) {
        w.u32(static_cast<std::uint32_t>(col.size()));
        w.raw(col.data(), col.size() * sizeof(double));
      }
    };
    panel(d.pending_u());
    panel(d.pending_bu());
    panel(d.pending_vtb());
  } else {
    const DiracDeterminant& d = det.dirac();
    w.u8(kDetSherman);
    w.raw(d.inverse().data(), static_cast<std::size_t>(n) * n * sizeof(double));
    w.f64(d.log_det());
    w.f64(d.sign());
  }
}

bool restore_det(BlobReader& r, DetUpdater& det, int norb)
{
  const auto n = static_cast<int>(r.u32());
  const std::uint8_t kind = r.u8();
  if (!r.ok() || n != norb)
    return false;
  const auto want = det.kind() == DetUpdateKind::Delayed ? kDetDelayed : kDetSherman;
  if (kind != want)
    return false;
  if (kind == kDetDelayed) {
    Matrix<double> binv(n), a_current(n);
    r.raw(binv.data(), static_cast<std::size_t>(n) * n * sizeof(double));
    r.raw(a_current.data(), static_cast<std::size_t>(n) * n * sizeof(double));
    const double log_det = r.f64();
    const double sign = r.f64();
    const std::uint32_t k = r.u32();
    if (!r.ok() || k > static_cast<std::uint32_t>(det.delay()))
      return false;
    std::vector<int> cols(k);
    for (auto& c : cols) {
      c = static_cast<int>(r.i32());
      if (c < 0 || c >= n)
        return false;
    }
    auto panel = [&](std::vector<std::vector<double>>& out) {
      out.resize(k);
      for (auto& col : out) {
        const std::uint32_t len = r.u32();
        if (len != static_cast<std::uint32_t>(n)) {
          out.clear();
          return false;
        }
        col.resize(len);
        r.raw(col.data(), col.size() * sizeof(double));
      }
      return true;
    };
    std::vector<std::vector<double>> u, bu, vtb;
    if (!panel(u) || !panel(bu) || !panel(vtb) || !r.ok())
      return false;
    det.delayed().restore(std::move(binv), std::move(a_current), log_det, sign, std::move(cols),
                          std::move(u), std::move(bu), std::move(vtb));
  } else {
    Matrix<double> ainv(n);
    r.raw(ainv.data(), static_cast<std::size_t>(n) * n * sizeof(double));
    const double log_det = r.f64();
    const double sign = r.f64();
    if (!r.ok())
      return false;
    det.dirac().restore(std::move(ainv), log_det, sign);
  }
  return r.ok();
}

std::vector<std::uint8_t> serialize_walker(WalkerState& w, const MiniQMCSystem& sys,
                                           const MiniQMCConfig& cfg, int wid,
                                           bool include_dets = true)
{
  BlobWriter out;
  out.u32(static_cast<std::uint32_t>(wid));

  const Xoshiro256::State rs = w.rng.state();
  for (const std::uint64_t word : rs.s)
    out.u64(word);
  out.u8(rs.have_gauss ? 1 : 0);
  out.f64(rs.cached_gauss);

  out.u64(static_cast<std::uint64_t>(w.accepted));
  out.u64(static_cast<std::uint64_t>(w.attempted));
  out.u64(static_cast<std::uint64_t>(w.orbital_evals));

  out.u32(static_cast<std::uint32_t>(sys.nel));
  for (int e = 0; e < sys.nel; ++e) {
    const Vec3<qmc_real> r = w.elec_soa[e];
    out.f32(r.x);
    out.f32(r.y);
    out.f32(r.z);
  }

  // Committed distance tables of the configured layout pair, verbatim (the
  // other pair is never evaluated in the sweep; see state_r() rationale).
  out.u8(cfg.optimized_dt_jastrow ? 1 : 0);
  auto dump = [&](const qmc_real* p, std::size_t count) {
    out.u64(static_cast<std::uint64_t>(count));
    out.raw(p, count * sizeof(qmc_real));
  };
  if (cfg.optimized_dt_jastrow) {
    dump(w.ee_soa->state_r(), w.ee_soa->state_count());
    dump(w.ee_soa->state_dx(), w.ee_soa->state_count());
    dump(w.ee_soa->state_dy(), w.ee_soa->state_count());
    dump(w.ee_soa->state_dz(), w.ee_soa->state_count());
    dump(w.ei_soa->state_r(), w.ei_soa->state_count());
    dump(w.ei_soa->state_dx(), w.ei_soa->state_count());
    dump(w.ei_soa->state_dy(), w.ei_soa->state_count());
    dump(w.ei_soa->state_dz(), w.ei_soa->state_count());
  } else {
    dump(w.ee_aos->state_r(), w.ee_aos->state_count());
    dump(reinterpret_cast<const qmc_real*>(w.ee_aos->state_dr()), 3 * w.ee_aos->state_count());
    dump(w.ei_aos->state_r(), w.ei_aos->state_count());
    dump(reinterpret_cast<const qmc_real*>(w.ei_aos->state_dr()), 3 * w.ei_aos->state_count());
  }

  if (include_dets) {
    serialize_det(out, w.det_up);
    serialize_det(out, w.det_dn);
  }
  return out.take();
}

bool restore_walker(const std::vector<std::uint8_t>& payload, WalkerState& w,
                    const MiniQMCSystem& sys, const MiniQMCConfig& cfg, int wid,
                    bool include_dets = true)
{
  BlobReader r(payload);
  if (static_cast<int>(r.u32()) != wid)
    return false;

  Xoshiro256::State rs;
  for (auto& word : rs.s)
    word = r.u64();
  rs.have_gauss = r.u8() != 0;
  rs.cached_gauss = r.f64();

  const std::uint64_t accepted = r.u64();
  const std::uint64_t attempted = r.u64();
  const std::uint64_t orbital_evals = r.u64();

  const auto nel = static_cast<int>(r.u32());
  if (!r.ok() || nel != sys.nel)
    return false;
  std::vector<Vec3<qmc_real>> pos(static_cast<std::size_t>(nel));
  for (auto& p : pos) {
    p.x = r.f32();
    p.y = r.f32();
    p.z = r.f32();
  }

  const bool optimized = r.u8() != 0;
  if (!r.ok() || optimized != cfg.optimized_dt_jastrow)
    return false;
  auto load = [&](qmc_real* p, std::size_t count) {
    if (static_cast<std::size_t>(r.u64()) != count)
      return false;
    r.raw(p, count * sizeof(qmc_real));
    return r.ok();
  };
  bool tables_ok;
  if (optimized) {
    tables_ok = load(w.ee_soa->state_r(), w.ee_soa->state_count()) &&
                load(w.ee_soa->state_dx(), w.ee_soa->state_count()) &&
                load(w.ee_soa->state_dy(), w.ee_soa->state_count()) &&
                load(w.ee_soa->state_dz(), w.ee_soa->state_count()) &&
                load(w.ei_soa->state_r(), w.ei_soa->state_count()) &&
                load(w.ei_soa->state_dx(), w.ei_soa->state_count()) &&
                load(w.ei_soa->state_dy(), w.ei_soa->state_count()) &&
                load(w.ei_soa->state_dz(), w.ei_soa->state_count());
  } else {
    tables_ok = load(w.ee_aos->state_r(), w.ee_aos->state_count()) &&
                load(reinterpret_cast<qmc_real*>(w.ee_aos->state_dr()),
                     3 * w.ee_aos->state_count()) &&
                load(w.ei_aos->state_r(), w.ei_aos->state_count()) &&
                load(reinterpret_cast<qmc_real*>(w.ei_aos->state_dr()),
                     3 * w.ei_aos->state_count());
  }
  if (!tables_ok)
    return false;

  if (include_dets && (!restore_det(r, w.det_up, sys.norb) || !restore_det(r, w.det_dn, sys.norb)))
    return false;
  if (!r.ok() || !r.exhausted())
    return false;

  // All sections validated — apply the non-rewindable pieces last so a
  // malformed payload never half-applies onto a live walker.
  w.rng.set_state(rs);
  w.accepted = static_cast<std::size_t>(accepted);
  w.attempted = static_cast<std::size_t>(attempted);
  w.orbital_evals = static_cast<std::size_t>(orbital_evals);
  for (int e = 0; e < nel; ++e) {
    w.elec_soa.set(e, pos[static_cast<std::size_t>(e)]);
    w.elec_aos[e] = pos[static_cast<std::size_t>(e)];
  }
  return true;
}

/// Meta payload: the common prefix (resume reads exactly these fields), then
/// — for DMC snapshots only — the branching-provenance tail.  @p nw is the
/// LIVE population at the snapshot point (== sys.nw for the fixed-count VMC
/// drivers).  A VMC meta stays byte-identical to the PR 7 format; the DMC
/// tail is purely appended, which the prefix-reading resume tolerates.
std::vector<std::uint8_t> serialize_meta(int step, int nw, const MiniQMCSystem& sys,
                                         const MiniQMCConfig& cfg,
                                         const DmcRunState* dmc = nullptr)
{
  BlobWriter out;
  out.u32(static_cast<std::uint32_t>(step));
  out.u32(static_cast<std::uint32_t>(nw));
  out.u32(static_cast<std::uint32_t>(sys.nel));
  out.u32(static_cast<std::uint32_t>(sys.norb));
  out.u32(static_cast<std::uint32_t>(sizeof(qmc_real)));
  out.u64(cfg.seed);
  out.i32(cfg.delay_rank);
  out.u8(cfg.optimized_dt_jastrow ? 1 : 0);
  out.u8(static_cast<std::uint8_t>(cfg.spo));
  if (dmc != nullptr) {
    out.u8(1); // DMC provenance tail marker
    out.u32(static_cast<std::uint32_t>(dmc->generation));
    out.f64(dmc->trial_energy);
    out.u64(dmc->births);
    out.u64(dmc->deaths);
    out.u32(static_cast<std::uint32_t>(dmc->weights.size()));
    for (const double wgt : dmc->weights)
      out.f64(wgt);
  }
  return out.take();
}

} // namespace

std::uint64_t miniqmc_config_hash(const MiniQMCConfig& cfg, const MiniQMCSystem& sys) noexcept
{
  Fnv1a h;
  h.mix(ckpt::kFormatVersion);
  for (const int s : cfg.supercell)
    h.mix(static_cast<std::uint64_t>(s));
  h.mix(static_cast<std::uint64_t>(cfg.grid_size));
  h.mix(static_cast<std::uint64_t>(sys.norb)); // num_splines resolved
  h.mix(static_cast<std::uint64_t>(sys.nw));   // num_walkers resolved
  h.mix(static_cast<std::uint64_t>(cfg.spo));
  h.mix(cfg.optimized_dt_jastrow ? 1 : 0);
  h.mix(static_cast<std::uint64_t>(cfg.quadrature_points));
  std::uint64_t sigma_bits = 0;
  static_assert(sizeof sigma_bits == sizeof cfg.move_sigma);
  std::memcpy(&sigma_bits, &cfg.move_sigma, sizeof sigma_bits);
  h.mix(sigma_bits);
  h.mix(cfg.seed);
  h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(cfg.delay_rank)));
  // The RESOLVED precision path (after the AoS-has-no-mixed-variant
  // fallback) changes every accepted move, so mixed and native snapshots
  // must refuse to cross-resume.  Tagged-on-mixed-only so every Native hash
  // — including those of snapshots written before the knob existed — is
  // unchanged.
  if (sys.precision == PrecisionPath::Mixed)
    h.mix(0x4d495845ULL); // "MIXE" tag
  // Deliberately excluded: crowd_size, tile_size, inner_threads, pos_block,
  // steps — pure scheduling/budget knobs under the bit-for-bit invariant, so
  // a snapshot written by one schedule resumes under any other.  Driver mode
  // is likewise excluded for the fixed-population VMC drivers (per-walker and
  // crowd trajectories are identical), but DMC branching IS the trajectory:
  // every branching knob below is mixed in, so VMC and DMC snapshots — or two
  // different branching setups — never cross-resume silently.
  if (cfg.driver == DriverMode::DMC) {
    const auto mixf = [&h](double v) {
      std::uint64_t bits = 0;
      static_assert(sizeof bits == sizeof v);
      std::memcpy(&bits, &v, sizeof bits);
      h.mix(bits);
    };
    h.mix(0x444d4331ULL); // "DMC1" tag
    h.mix(static_cast<std::uint64_t>(cfg.dmc_gen_steps));
    mixf(cfg.dmc_tau);
    mixf(cfg.dmc_weight_min);
    mixf(cfg.dmc_weight_max);
    mixf(cfg.dmc_feedback);
    h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(cfg.dmc_max_branch)));
    h.mix(static_cast<std::uint64_t>(
        cfg.dmc_target_walkers > 0 ? cfg.dmc_target_walkers : sys.nw));
    h.mix(cfg.dmc_replay ? 1 : 0);
    // dmc_generations is the step budget, excluded like cfg.steps.
  }
  return h.h;
}

CheckpointRuntime make_checkpoint_runtime(const MiniQMCConfig& cfg, const MiniQMCSystem& sys)
{
  CheckpointRuntime rt;
  rt.path = cfg.checkpoint_path;
  rt.interval = cfg.checkpoint_interval;
  rt.config_hash = miniqmc_config_hash(cfg, sys);
  std::string spec = cfg.fault_inject;
  if (spec.empty()) {
    if (const char* env = std::getenv("MQC_FAULT_INJECT"))
      spec = env;
  }
  if (!spec.empty() && rt.enabled())
    rt.fault = ckpt::parse_fault_plan(spec);
  return rt;
}

int next_epoch_boundary(const CheckpointRuntime& rt, int step, int steps)
{
  // Invariant (requires step < steps): the returned boundary is strictly
  // greater than step — each candidate below (next interval multiple, armed
  // abort step, end of run) exceeds step — so the drivers' epoch loops
  // always terminate and every boundary reaches checkpoint_step_boundary.
  // The `interval > steps` case clamps to `steps` and writes the final
  // snapshot there; runs that never reach this function at all (steps == 0,
  // or a resume at/past the budget) get their end-of-run snapshot from the
  // drivers' post-loop guarantee.
  int boundary = steps;
  if (rt.enabled() && rt.interval > 0) {
    const int next_ckpt = (step / rt.interval + 1) * rt.interval;
    boundary = std::min(boundary, next_ckpt);
  }
  if (rt.fault.armed() && rt.fault.abort_at_step > step)
    boundary = std::min(boundary, rt.fault.abort_at_step);
  return boundary;
}

namespace {

/// Shared step-boundary protocol for the fixed-population drivers and DMC:
/// write an interval-aligned or final snapshot over the LIVE walker vector
/// (with the DMC Meta tail when @p dmc is set), apply armed file faults,
/// and exit the process when the abort fault fires at this boundary.
void boundary_snapshot(const CheckpointRuntime& rt, const MiniQMCConfig& cfg,
                       const MiniQMCSystem& sys, std::vector<WalkerState>& walkers,
                       const CrowdSet& crowds, const DmcRunState* dmc, int step, int steps,
                       MiniQMCResult& result)
{
#ifdef MQC_CONTRACTS
  // Snapshot points sit between team regions: no facade evaluation may own
  // the resource of any crowd's scratch (where the sweep's batches keep
  // their weights) here, or the snapshot would capture walker output
  // buffers mid-flight.
  for (const auto& scr : crowds.scratch)
    mqc_contract(!scr || !scr->ores.contract_live,
                 "checkpoint at step %d taken while an OrbitalResource is live", step);
#else
  (void)crowds;
#endif
  const bool interval_hit = rt.interval > 0 && step % rt.interval == 0;
  const bool final_hit = step == steps;
  if (interval_hit || final_hit) {
    Snapshot snap;
    snap.config_hash = rt.config_hash;
    Section meta;
    meta.id = SectionId::Meta;
    meta.payload = serialize_meta(step, static_cast<int>(walkers.size()), sys, cfg, dmc);
    snap.sections.push_back(std::move(meta));
    for (std::size_t wid = 0; wid < walkers.size(); ++wid) {
      Section s;
      s.id = SectionId::Walker;
      s.index = static_cast<std::uint32_t>(wid);
      s.payload = serialize_walker(walkers[wid], sys, cfg, static_cast<int>(wid));
      snap.sections.push_back(std::move(s));
    }
    std::string err;
    if (ckpt::write_snapshot(rt.path, snap, &err))
      ++result.checkpoints_written;
    else
      std::fprintf(stderr, "miniqmc: checkpoint write failed at step %d: %s\n", step,
                   err.c_str());
  }
  if (rt.fault.armed() && step == rt.fault.abort_at_step && step < steps) {
    ckpt::apply_file_faults(rt.path, rt.fault);
    std::fflush(nullptr);
    std::_Exit(ckpt::kFaultExitCode); // simulated node loss (fault harness)
  }
}

} // namespace

void checkpoint_step_boundary(const CheckpointRuntime& rt, const MiniQMCConfig& cfg,
                              const MiniQMCSystem& sys, std::vector<WalkerState>& walkers,
                              const CrowdSet& crowds, int step, int steps,
                              MiniQMCResult& result)
{
  if (!rt.enabled())
    return;
  boundary_snapshot(rt, cfg, sys, walkers, crowds, nullptr, step, steps, result);
}

void dmc_checkpoint_boundary(const CheckpointRuntime& rt, const MiniQMCConfig& cfg,
                             const MiniQMCSystem& sys, std::vector<WalkerState>& walkers,
                             const CrowdSet& crowds, DmcRunState& dmc, int step, int steps,
                             MiniQMCResult& result)
{
  if (!rt.enabled())
    return;
  assert(dmc.weights.size() == walkers.size());
  boundary_snapshot(rt, cfg, sys, walkers, crowds, &dmc, step, steps, result);
}

int resume_from_checkpoint(const CheckpointRuntime& rt, const MiniQMCConfig& cfg,
                           const MiniQMCSystem& sys, std::vector<WalkerState>& walkers,
                           MiniQMCResult& result)
{
  if (!rt.enabled() || !cfg.resume)
    return 0;
  Snapshot snap;
  const ckpt::LoadResult load = ckpt::read_snapshot_with_fallback(rt.path, rt.config_hash, snap);
  if (!load.loaded()) {
    result.resume_error = load.detail;
    return 0; // fresh start, surfaced — never a crash
  }
  const Section* meta = snap.find(SectionId::Meta);
  if (meta == nullptr) {
    result.resume_error = load.path_used + ": snapshot has no meta section";
    return 0;
  }
  BlobReader mr(meta->payload);
  const auto step = static_cast<int>(mr.u32());
  const auto nw = static_cast<int>(mr.u32());
  const auto nel = static_cast<int>(mr.u32());
  const auto norb = static_cast<int>(mr.u32());
  const auto real_size = static_cast<int>(mr.u32());
  if (!mr.ok() || nw != sys.nw || nel != sys.nel || norb != sys.norb ||
      real_size != static_cast<int>(sizeof(qmc_real)) || step < 0) {
    result.resume_error = load.path_used + ": meta section disagrees with the live run shape";
    return 0;
  }
  // Restore into scratch walkers first: a payload that fails layout checks
  // mid-population must not leave some walkers resumed and others fresh.
  for (int wid = 0; wid < sys.nw; ++wid) {
    const Section* s = snap.find(SectionId::Walker, static_cast<std::uint32_t>(wid));
    if (s == nullptr) {
      result.resume_error =
          load.path_used + ": missing walker section " + std::to_string(wid);
      break;
    }
    WalkerState probe;
    init_walker_shell(probe, sys, cfg); // restore validates shapes; no fresh build needed
    if (!restore_walker(s->payload, probe, sys, cfg, wid)) {
      result.resume_error =
          load.path_used + ": walker section " + std::to_string(wid) + " failed layout checks";
      break;
    }
  }
  if (!result.resume_error.empty()) {
    // Rebuild clean state: the probe pass never touched `walkers`, but make
    // the fresh start explicit anyway.
    return 0;
  }
  for (int wid = 0; wid < sys.nw; ++wid) {
    const Section* s = snap.find(SectionId::Walker, static_cast<std::uint32_t>(wid));
    const bool applied =
        restore_walker(s->payload, walkers[static_cast<std::size_t>(wid)], sys, cfg, wid);
    (void)applied;
    assert(applied); // the probe pass above already validated every payload
  }
  result.resumed_from_step = step;
  result.resume_fallback_used = load.fallback_used;
  if (load.fallback_used)
    result.resume_error = load.detail; // surfaced: recovery path engaged
  return step;
}

// --------------------------------------------------------------------------
// Walker-state blob accessors (shared with the DMC clone path)
// --------------------------------------------------------------------------

std::vector<std::uint8_t> serialize_walker_state(WalkerState& w, const MiniQMCSystem& sys,
                                                 const MiniQMCConfig& cfg, int wid)
{
  return serialize_walker(w, sys, cfg, wid);
}

bool restore_walker_state(const std::vector<std::uint8_t>& payload, WalkerState& w,
                          const MiniQMCSystem& sys, const MiniQMCConfig& cfg, int wid)
{
  return restore_walker(payload, w, sys, cfg, wid);
}

void clone_walker_state(WalkerState& dst, WalkerState& src, const MiniQMCSystem& sys,
                        const MiniQMCConfig& cfg)
{
  // Light state (rng stream incl. the Box–Muller cache, counters, positions,
  // committed distance tables) rides the Walker-section codec, so a clone is
  // exactly a snapshot round-trip of its parent; the O(norb^2) determinant
  // panels skip the byte codec via the direct engine copy.
  const std::vector<std::uint8_t> blob =
      serialize_walker(src, sys, cfg, /*wid=*/0, /*include_dets=*/false);
  const bool applied = restore_walker(blob, dst, sys, cfg, /*wid=*/0, /*include_dets=*/false);
  (void)applied;
  assert(applied); // dst shell-initialized for the same (sys, cfg) => same shapes
  dst.det_up.clone_state_from(src.det_up);
  dst.det_dn.clone_state_from(src.det_dn);
}

// --------------------------------------------------------------------------
// DMC population checkpoint glue
// --------------------------------------------------------------------------

int dmc_resume_from_checkpoint(const CheckpointRuntime& rt, const MiniQMCConfig& cfg,
                               const MiniQMCSystem& sys, std::vector<WalkerState>& walkers,
                               DmcRunState& dmc, MiniQMCResult& result)
{
  if (!rt.enabled() || !cfg.resume)
    return 0;
  Snapshot snap;
  const ckpt::LoadResult load = ckpt::read_snapshot_with_fallback(rt.path, rt.config_hash, snap);
  if (!load.loaded()) {
    result.resume_error = load.detail;
    return 0; // fresh start, surfaced — never a crash
  }
  const Section* meta = snap.find(SectionId::Meta);
  if (meta == nullptr) {
    result.resume_error = load.path_used + ": snapshot has no meta section";
    return 0;
  }
  BlobReader mr(meta->payload);
  const auto step = static_cast<int>(mr.u32());
  const auto nw = static_cast<int>(mr.u32());
  const auto nel = static_cast<int>(mr.u32());
  const auto norb = static_cast<int>(mr.u32());
  const auto real_size = static_cast<int>(mr.u32());
  if (!mr.ok() || nw < 1 || nel != sys.nel || norb != sys.norb ||
      real_size != static_cast<int>(sizeof(qmc_real)) || step < 0) {
    result.resume_error = load.path_used + ": meta section disagrees with the live run shape";
    return 0;
  }
  // Skip the common tail (seed, delay_rank, optimized, spo): the config hash
  // already pinned them; the DMC provenance tail follows.
  (void)mr.u64();
  (void)mr.i32();
  (void)mr.u8();
  (void)mr.u8();
  if (mr.u8() != 1 || !mr.ok()) {
    result.resume_error = load.path_used + ": meta section has no DMC provenance tail";
    return 0;
  }
  DmcRunState staged;
  staged.generation = static_cast<int>(mr.u32());
  staged.trial_energy = mr.f64();
  staged.births = mr.u64();
  staged.deaths = mr.u64();
  const auto nweights = static_cast<int>(mr.u32());
  if (!mr.ok() || staged.generation < 0 || nweights != nw) {
    result.resume_error = load.path_used + ": DMC provenance tail failed layout checks";
    return 0;
  }
  staged.weights.resize(static_cast<std::size_t>(nweights));
  for (double& wgt : staged.weights)
    wgt = mr.f64();
  if (!mr.ok()) {
    result.resume_error = load.path_used + ": DMC provenance tail failed layout checks";
    return 0;
  }
  // Probe pass: validate every walker section against the live shapes before
  // touching the population — a damaged snapshot must never half-apply.
  for (int wid = 0; wid < nw; ++wid) {
    const Section* s = snap.find(SectionId::Walker, static_cast<std::uint32_t>(wid));
    if (s == nullptr) {
      result.resume_error = load.path_used + ": missing walker section " + std::to_string(wid);
      return 0;
    }
    WalkerState probe;
    init_walker_shell(probe, sys, cfg);
    if (!restore_walker(s->payload, probe, sys, cfg, wid)) {
      result.resume_error =
          load.path_used + ": walker section " + std::to_string(wid) + " failed layout checks";
      return 0;
    }
  }
  // Apply: rebuild the population at the snapshot's size (dynamic in DMC).
  walkers.clear();
  walkers.resize(static_cast<std::size_t>(nw));
  for (int wid = 0; wid < nw; ++wid) {
    const Section* s = snap.find(SectionId::Walker, static_cast<std::uint32_t>(wid));
    init_walker_shell(walkers[static_cast<std::size_t>(wid)], sys, cfg);
    const bool applied =
        restore_walker(s->payload, walkers[static_cast<std::size_t>(wid)], sys, cfg, wid);
    (void)applied;
    assert(applied); // the probe pass above already validated every payload
  }
  dmc = std::move(staged);
  result.resumed_from_step = step;
  result.resume_fallback_used = load.fallback_used;
  if (load.fallback_used)
    result.resume_error = load.detail; // surfaced: recovery path engaged
  return step;
}

} // namespace mqc::detail
