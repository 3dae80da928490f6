#include "serve/journal.h"

#include <sstream>
#include <string_view>
#include <utility>

#include "common/file_io.h"
#include "eda/record_codec.h"

namespace atena {

namespace {

constexpr char kFileHeader[] = "ATENA-SJL v1\n";
constexpr size_t kFileHeaderLen = sizeof(kFileHeader) - 1;

bool SameWords(const RngState& a, const RngState& b) {
  return a.words[0] == b.words[0] && a.words[1] == b.words[1] &&
         a.words[2] == b.words[2] && a.words[3] == b.words[3];
}

}  // namespace

JournalRng MakeJournalRng(const RngState& before, const RngState& after) {
  JournalRng out;
  Rng probe(1);
  probe.set_state(before);
  for (uint32_t draws = 0; draws <= kMaxJournalRngDelta; ++draws) {
    if (SameWords(probe.state(), after)) {
      out.full = false;
      out.draws = draws;
      out.has_spare = after.has_spare_gaussian;
      out.spare = after.spare_gaussian;
      return out;
    }
    probe.NextUint64();
  }
  // Unprovable (a re-seed, or an unusually draw-hungry step): record the
  // state verbatim. Correct either way — the delta is an optimization.
  out.full = true;
  out.state = after;
  return out;
}

RngState MaterializeJournalRng(const JournalRng& rng,
                               const RngState& current) {
  if (rng.full) return rng.state;
  Rng probe(1);
  probe.set_state(current);
  for (uint32_t i = 0; i < rng.draws; ++i) probe.NextUint64();
  RngState out = probe.state();
  out.has_spare_gaussian = rng.has_spare;
  // Without a spare the cached value is untouched garbage the step either
  // never looked at or consumed in place — both leave the bytes equal to
  // `current`'s (already carried through the probe), so only a fresh
  // spare needs restoring. The writer omits the value accordingly.
  if (rng.has_spare) out.spare_gaussian = rng.spare;
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Payload encoding through the record codec (common/record_codec.h, with
// the operation shapes of eda/record_codec.h); only the journal's own forms
// live here.

// Tick entries carry the delta form when possible ("d <draws> <spare>"),
// the full state ("F <state>") otherwise — the dominant byte saving of
// the tick record.
char* PutJournalRng(char* p, char* end, const JournalRng& rng) {
  if (rng.full) {
    *p++ = 'F';
    *p++ = ' ';
    return PutRng(p, end, rng.state);
  }
  *p++ = 'd';
  *p++ = ' ';
  p = PutNum(p, end, rng.draws);
  *p++ = ' ';
  if (rng.has_spare) {
    *p++ = '1';
    *p++ = ' ';
    return PutF64(p, rng.spare);
  }
  // A cleared/absent spare keeps its pre-step bytes; the value is omitted
  // (MaterializeJournalRng carries it from `current`).
  *p++ = '0';
  return p;
}

/// A step's fields up to its operation: "<valid> <reward> <signature> ".
char* PutStepHead(char* p, char* end, const ServedStep& step) {
  *p++ = step.valid ? '1' : '0';
  *p++ = ' ';
  p = PutF64(p, step.reward);
  *p++ = ' ';
  p = PutNum(p, end, step.display_signature);
  *p++ = ' ';
  return p;
}

void Sp(std::string& out) { out.push_back(' '); }
void Nl(std::string& out) { out.push_back('\n'); }

void EncodeStep(std::string& out, const ServedStep& step) {
  char buf[48];
  out.append(buf, PutStepHead(buf, buf + sizeof(buf), step));
  EncodeOp(out, step.op);
}

std::string EncodeMetaPayload(const JournalMeta& meta) {
  std::string out;
  Field(out, "version", meta.version);
  out += "dataset ";
  EncodeString(out, meta.dataset_id);
  Nl(out);
  Field(out, "obs_dim", meta.observation_dim);
  Field(out, "episode_length", meta.episode_length);
  Field(out, "term_bins", meta.num_term_bins);
  return out;
}

std::string EncodeAdmitPayload(const JournalAdmit& admit) {
  std::string out;
  Num(out, admit.id);
  Sp(out);
  Num(out, admit.seed);
  Sp(out);
  Num(out, admit.max_steps);
  Sp(out);
  Num(out, admit.greedy ? 1 : 0);
  Sp(out);
  Num(out, admit.gen);
  Nl(out);
  return out;
}

std::string EncodeReloadPayload(const JournalReload& reload) {
  std::string out;
  Num(out, reload.gen);
  Sp(out);
  EncodeString(out, reload.path);
  Nl(out);
  return out;
}

std::string TickPayloadHeader(bool overloaded, size_t count) {
  std::string out;
  Num(out, overloaded ? 1 : 0);
  Sp(out);
  Num(out, count);
  Nl(out);
  return out;
}

std::string EncodeStopPayload(const std::vector<uint64_t>& ids) {
  std::string out;
  Num(out, ids.size());
  for (uint64_t id : ids) {
    Sp(out);
    Num(out, id);
  }
  Nl(out);
  return out;
}

std::string EncodeSnapPayload(const JournalSnapshot& snap) {
  std::string out;
  out.reserve(256 + snap.sessions.size() * 512);
  Field(out, "next_id", snap.next_id);
  Field(out, "steps_served", snap.steps_served);
  Field(out, "overloaded", snap.overloaded ? 1 : 0);
  out += "stats ";
  Num(out, snap.stats.size());
  for (int64_t v : snap.stats) {
    Sp(out);
    Num(out, v);
  }
  Nl(out);
  Field(out, "gens", snap.generation_paths.size());
  for (const std::string& path : snap.generation_paths) {
    EncodeString(out, path);
    Nl(out);
  }
  Field(out, "current_gen", snap.current_gen);
  Field(out, "notebook_seq", snap.notebook_seq);
  Field(out, "sessions", snap.sessions.size());
  for (const JournalSessionState& s : snap.sessions) {
    out += "session ";
    Num(out, s.id);
    Sp(out);
    Num(out, s.seed);
    Sp(out);
    Num(out, s.max_steps);
    Sp(out);
    Num(out, s.greedy ? 1 : 0);
    Sp(out);
    Num(out, s.gen);
    Sp(out);
    Num(out, s.steps_done);
    Sp(out);
    Num(out, s.stage);
    Sp(out);
    Num(out, s.degraded_steps);
    Sp(out);
    Num(out, s.episode_steps);
    Sp(out);
    F64(out, s.total_reward);
    Nl(out);
    out += "env_rng ";
    EncodeRng(out, s.env_rng);
    Nl(out);
    out += "act_rng ";
    EncodeRng(out, s.act_rng);
    Nl(out);
    Field(out, "trace", s.trace.size());
    for (const ServedStep& step : s.trace) {
      EncodeStep(out, step);
      Nl(out);
    }
  }
  out += "end\n";
  return out;
}

// ---------------------------------------------------------------------------
// Payload decoding through the record codec's PayloadReader. Any surprise
// aborts the record's parse with a Status, which the journal reader maps to
// prefix semantics (drop this record and everything after it).

Status ReadJournalRng(PayloadReader& reader, JournalRng* rng) {
  std::string tag;
  ATENA_RETURN_IF_ERROR(reader.Read(&tag, "rng"));
  if (tag == "F") {
    rng->full = true;
    return reader.ReadRng(&rng->state);
  }
  if (tag != "d") return reader.Fail("unknown rng tag '" + tag + "'");
  rng->full = false;
  ATENA_RETURN_IF_ERROR(reader.Read(&rng->draws, "rng draw delta"));
  if (rng->draws > kMaxJournalRngDelta) {
    return reader.Fail("rng draw delta " + std::to_string(rng->draws) +
                       " out of range");
  }
  ATENA_RETURN_IF_ERROR(reader.ReadBool(&rng->has_spare, "rng spare flag"));
  rng->spare = 0.0;
  if (rng->has_spare) {
    ATENA_RETURN_IF_ERROR(reader.ReadF64(&rng->spare, "rng spare value"));
  }
  return Status::OK();
}

Status ReadStep(PayloadReader& reader, ServedStep* step) {
  ATENA_RETURN_IF_ERROR(reader.ReadBool(&step->valid, "step valid flag"));
  ATENA_RETURN_IF_ERROR(reader.ReadF64(&step->reward, "step reward"));
  ATENA_RETURN_IF_ERROR(
      reader.Read(&step->display_signature, "step signature"));
  return ReadOp(reader, &step->op);
}

Status DecodeMetaPayload(PayloadReader& reader, JournalMeta* meta) {
  JournalMeta out;
  ATENA_RETURN_IF_ERROR(reader.ReadField("version", &out.version));
  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("dataset"));
  ATENA_RETURN_IF_ERROR(reader.ReadString(&out.dataset_id, "dataset id"));
  ATENA_RETURN_IF_ERROR(reader.ReadField("obs_dim", &out.observation_dim));
  ATENA_RETURN_IF_ERROR(
      reader.ReadField("episode_length", &out.episode_length));
  ATENA_RETURN_IF_ERROR(reader.ReadField("term_bins", &out.num_term_bins));
  *meta = std::move(out);
  return Status::OK();
}

Status DecodeAdmitPayload(PayloadReader& reader, JournalAdmit* admit) {
  JournalAdmit out;
  ATENA_RETURN_IF_ERROR(reader.Read(&out.id, "admit id"));
  ATENA_RETURN_IF_ERROR(reader.Read(&out.seed, "admit seed"));
  ATENA_RETURN_IF_ERROR(reader.Read(&out.max_steps, "admit max_steps"));
  ATENA_RETURN_IF_ERROR(reader.ReadBool(&out.greedy, "admit greedy flag"));
  ATENA_RETURN_IF_ERROR(reader.Read(&out.gen, "admit generation"));
  *admit = out;
  return Status::OK();
}

Status DecodeReloadPayload(PayloadReader& reader, JournalReload* reload) {
  JournalReload out;
  ATENA_RETURN_IF_ERROR(reader.Read(&out.gen, "reload generation"));
  ATENA_RETURN_IF_ERROR(reader.ReadString(&out.path, "reload path"));
  *reload = std::move(out);
  return Status::OK();
}

Status DecodeTickPayload(PayloadReader& reader, JournalTick* tick) {
  JournalTick out;
  ATENA_RETURN_IF_ERROR(reader.ReadBool(&out.overloaded, "tick overloaded"));
  int64_t count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadCount(&count, "tick entry"));
  out.entries.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    std::string tag;
    ATENA_RETURN_IF_ERROR(reader.Read(&tag, "tick entry"));
    JournalTickEntry entry;
    if (tag == "q") {
      entry.kind = JournalTickEntry::Kind::kQuarantine;
      ATENA_RETURN_IF_ERROR(reader.Read(&entry.id, "quarantine id"));
    } else if (tag == "s") {
      entry.kind = JournalTickEntry::Kind::kStep;
      ATENA_RETURN_IF_ERROR(reader.Read(&entry.id, "step id"));
      ATENA_RETURN_IF_ERROR(reader.Read(&entry.end, "step end"));
      if (entry.end < JournalTickEntry::kLive ||
          entry.end > JournalTickEntry::kDeadlineRetired) {
        return reader.Fail("step end " + std::to_string(entry.end) +
                           " out of range");
      }
      ATENA_RETURN_IF_ERROR(reader.Read(&entry.stage_after, "step stage"));
      ATENA_RETURN_IF_ERROR(ReadJournalRng(reader, &entry.env_rng));
      ATENA_RETURN_IF_ERROR(ReadJournalRng(reader, &entry.act_rng));
      ATENA_RETURN_IF_ERROR(ReadStep(reader, &entry.step));
    } else {
      return reader.Fail("unknown tick entry tag '" + tag + "'");
    }
    out.entries.push_back(std::move(entry));
  }
  *tick = std::move(out);
  return Status::OK();
}

Status DecodeStopPayload(PayloadReader& reader, std::vector<uint64_t>* ids) {
  int64_t count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadCount(&count, "stop id"));
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    ATENA_RETURN_IF_ERROR(reader.Read(&id, "stop id"));
    out.push_back(id);
  }
  *ids = std::move(out);
  return Status::OK();
}

Status DecodeSnapPayload(PayloadReader& reader, JournalSnapshot* snap) {
  JournalSnapshot out;
  ATENA_RETURN_IF_ERROR(reader.ReadField("next_id", &out.next_id));
  ATENA_RETURN_IF_ERROR(reader.ReadField("steps_served", &out.steps_served));
  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("overloaded"));
  ATENA_RETURN_IF_ERROR(reader.ReadBool(&out.overloaded, "overloaded"));
  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("stats"));
  int64_t stat_count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadCount(&stat_count, "stats"));
  out.stats.resize(static_cast<size_t>(stat_count));
  for (int64_t& v : out.stats) {
    ATENA_RETURN_IF_ERROR(reader.Read(&v, "stats value"));
  }
  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("gens"));
  int64_t gen_count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadCount(&gen_count, "generation"));
  if (gen_count < 1) return reader.Fail("empty generation table");
  out.generation_paths.resize(static_cast<size_t>(gen_count));
  for (std::string& path : out.generation_paths) {
    ATENA_RETURN_IF_ERROR(reader.ReadString(&path, "generation path"));
  }
  ATENA_RETURN_IF_ERROR(reader.ReadField("current_gen", &out.current_gen));
  if (out.current_gen >= out.generation_paths.size()) {
    return reader.Fail("current_gen out of range");
  }
  ATENA_RETURN_IF_ERROR(reader.ReadField("notebook_seq", &out.notebook_seq));
  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("sessions"));
  int64_t session_count = 0;
  ATENA_RETURN_IF_ERROR(reader.ReadCount(&session_count, "session"));
  out.sessions.reserve(static_cast<size_t>(session_count));
  for (int64_t i = 0; i < session_count; ++i) {
    JournalSessionState s;
    ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("session"));
    ATENA_RETURN_IF_ERROR(reader.Read(&s.id, "session id"));
    ATENA_RETURN_IF_ERROR(reader.Read(&s.seed, "session seed"));
    ATENA_RETURN_IF_ERROR(reader.Read(&s.max_steps, "session max_steps"));
    ATENA_RETURN_IF_ERROR(reader.ReadBool(&s.greedy, "session greedy flag"));
    ATENA_RETURN_IF_ERROR(reader.Read(&s.gen, "session generation"));
    if (s.gen >= out.generation_paths.size()) {
      return reader.Fail("session generation out of range");
    }
    ATENA_RETURN_IF_ERROR(reader.Read(&s.steps_done, "session steps_done"));
    ATENA_RETURN_IF_ERROR(reader.Read(&s.stage, "session stage"));
    ATENA_RETURN_IF_ERROR(
        reader.Read(&s.degraded_steps, "session degraded_steps"));
    ATENA_RETURN_IF_ERROR(
        reader.Read(&s.episode_steps, "session episode_steps"));
    ATENA_RETURN_IF_ERROR(
        reader.ReadF64(&s.total_reward, "session total_reward"));
    ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("env_rng"));
    ATENA_RETURN_IF_ERROR(reader.ReadRng(&s.env_rng));
    ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("act_rng"));
    ATENA_RETURN_IF_ERROR(reader.ReadRng(&s.act_rng));
    ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("trace"));
    int64_t trace_count = 0;
    ATENA_RETURN_IF_ERROR(reader.ReadCount(&trace_count, "trace step"));
    if (s.episode_steps < 0 || s.episode_steps > trace_count) {
      return reader.Fail("episode_steps out of range");
    }
    s.trace.reserve(static_cast<size_t>(trace_count));
    for (int64_t t = 0; t < trace_count; ++t) {
      ServedStep step;
      ATENA_RETURN_IF_ERROR(ReadStep(reader, &step));
      s.trace.push_back(std::move(step));
    }
    out.sessions.push_back(std::move(s));
  }
  ATENA_RETURN_IF_ERROR(reader.ExpectKeyword("end"));
  *snap = std::move(out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Record framing.

/// "ATJ <type> <crc32-8hex> <payload-bytes>\n": the frame line of every
/// record, appended or written by a compaction.
std::string FrameLine(const char* type, uint32_t crc, size_t payload_bytes) {
  std::string line = "ATJ ";
  line += type;
  line += ' ';
  char hex[8];
  line.append(hex, PutHex(hex, crc, 8));
  line += ' ';
  Num(line, payload_bytes);
  line += '\n';
  return line;
}

/// Parses one "ATJ <type> <crc> <size>" frame-header line. Strict: exactly
/// four tokens, the checksum exactly 8 lowercase hex digits — so any byte
/// flip inside the header is itself detected.
bool ParseFrameHeader(std::string_view line, std::string* type,
                      uint32_t* crc, uint64_t* size) {
  std::istringstream in{std::string(line)};
  std::string magic, crc_hex, extra;
  if (!(in >> magic >> *type >> crc_hex >> *size)) return false;
  if (in >> extra) return false;
  return magic == "ATJ" && ParseCrc32(crc_hex, crc);
}

/// Decodes one verified record payload into `out`. `index` is the record's
/// position in the file: 0 must be meta, 1 must be the compaction
/// snapshot, everything after is the append stream.
Status DecodeRecord(const std::string& type, const std::string& payload,
                    int index, JournalContents* out) {
  PayloadReader reader(payload, "journal record");
  if (index == 0) {
    if (type != "meta") {
      return Status::InvalidArgument("first journal record is '" + type +
                                     "', expected 'meta'");
    }
    ATENA_RETURN_IF_ERROR(DecodeMetaPayload(reader, &out->meta));
    out->has_meta = true;
    return Status::OK();
  }
  if (index == 1) {
    if (type != "snap") {
      return Status::InvalidArgument("second journal record is '" + type +
                                     "', expected 'snap'");
    }
    ATENA_RETURN_IF_ERROR(DecodeSnapPayload(reader, &out->snapshot));
    out->has_snapshot = true;
    out->snapshot_valid = true;
    return Status::OK();
  }
  JournalRecord record;
  if (type == "admit") {
    record.kind = JournalRecord::Kind::kAdmit;
    ATENA_RETURN_IF_ERROR(DecodeAdmitPayload(reader, &record.admit));
  } else if (type == "reload") {
    record.kind = JournalRecord::Kind::kReload;
    ATENA_RETURN_IF_ERROR(DecodeReloadPayload(reader, &record.reload));
  } else if (type == "tick") {
    record.kind = JournalRecord::Kind::kTick;
    ATENA_RETURN_IF_ERROR(DecodeTickPayload(reader, &record.tick));
  } else if (type == "stop") {
    record.kind = JournalRecord::Kind::kStop;
    ATENA_RETURN_IF_ERROR(DecodeStopPayload(reader, &record.stop_ids));
  } else {
    return Status::InvalidArgument("unknown journal record type '" + type +
                                   "'");
  }
  out->records.push_back(std::move(record));
  return Status::OK();
}

}  // namespace

void JournalTickBuilder::AddQuarantine(uint64_t id) {
  body_ += "q ";
  Num(body_, id);
  Nl(body_);
  ++entries_;
}

void JournalTickBuilder::EncodeStep(uint64_t id, int end, int stage_after,
                                    const JournalRng& env,
                                    const JournalRng& act,
                                    const ServedStep& step, std::string* out) {
  // Everything up to the operation is fixed-bounded (at most 297 bytes even
  // with two full-state fallbacks); the operation can carry an arbitrary
  // dataset string, so it appends through the growing-string encoders.
  char buf[384];
  char* const limit = buf + sizeof(buf);
  char* p = buf;
  *p++ = 's';
  *p++ = ' ';
  p = PutNum(p, limit, id);
  *p++ = ' ';
  p = PutNum(p, limit, end);
  *p++ = ' ';
  p = PutNum(p, limit, stage_after);
  *p++ = ' ';
  p = PutJournalRng(p, limit, env);
  *p++ = ' ';
  p = PutJournalRng(p, limit, act);
  *p++ = ' ';
  p = PutStepHead(p, limit, step);
  out->assign(buf, p);
  EncodeOp(*out, step.op);
  Nl(*out);
}

std::string JournalSidecarPath(const std::string& journal_path, int64_t seq) {
  return journal_path + ".nb." + std::to_string(seq);
}

Result<JournalContents> ReadJournal(const std::string& path) {
  std::string content;
  ATENA_RETURN_IF_ERROR(ReadFileToString(path, &content));

  JournalContents out;
  if (content.size() < kFileHeaderLen) {
    if (std::string_view(kFileHeader, content.size()) == content) {
      out.header_torn = true;
      out.clean_tail = content.empty();
      return out;
    }
    return Status::InvalidArgument("'" + path +
                                   "' is not an ATENA-SJL journal");
  }
  if (std::string_view(content).substr(0, kFileHeaderLen) != kFileHeader) {
    return Status::InvalidArgument("'" + path +
                                   "' is not an ATENA-SJL journal");
  }

  size_t offset = kFileHeaderLen;
  int index = 0;
  while (offset < content.size()) {
    const size_t header_end = content.find('\n', offset);
    if (header_end == std::string::npos) {
      out.clean_tail = false;  // torn frame header (crash mid-append)
      break;
    }
    std::string type;
    uint32_t declared_crc = 0;
    uint64_t size = 0;
    const bool frame_ok = ParseFrameHeader(
        std::string_view(content).substr(offset, header_end - offset), &type,
        &declared_crc, &size);
    if (!frame_ok) {
      // A mangled frame header. If this is where the compaction snapshot
      // must sit, try to resync at the next frame so the records *after*
      // the corrupt snapshot stay available for the .prev fallback;
      // anywhere else, prefix semantics end the parse here.
      if (index == 1) {
        const size_t next = content.find("\nATJ ", offset);
        if (next != std::string::npos) {
          out.has_snapshot = true;
          out.snapshot_valid = false;
          offset = next + 1;
          index = 2;
          continue;
        }
        out.has_snapshot = true;
        out.snapshot_valid = false;
      }
      out.clean_tail = false;
      break;
    }
    const size_t payload_start = header_end + 1;
    if (payload_start + size + 1 > content.size()) {
      out.clean_tail = false;  // torn payload
      break;
    }
    const std::string payload = content.substr(payload_start, size);
    bool record_ok = content[payload_start + size] == '\n' &&
                     Crc32(payload) == declared_crc;
    if (record_ok) {
      record_ok = DecodeRecord(type, payload, index, &out).ok();
    }
    if (!record_ok) {
      if (index == 1 && type == "snap") {
        // Corrupt compaction snapshot with an intact frame: skip exactly
        // its declared extent and keep the records after it (fallback
        // replays `<path>.prev` for the base state).
        out.has_snapshot = true;
        out.snapshot_valid = false;
        offset = payload_start + size + 1;
        ++index;
        continue;
      }
      out.clean_tail = false;
      break;
    }
    offset = payload_start + size + 1;
    ++index;
  }
  return out;
}

SessionJournal::SessionJournal(std::string path) : path_(std::move(path)) {}

Status SessionJournal::Reset(const JournalMeta& meta,
                             const JournalSnapshot& snapshot) {
  std::string content = kFileHeader;
  auto add_record = [&content](const char* type, const std::string& payload) {
    content += FrameLine(type, Crc32(payload), payload.size());
    content += payload;
    content += '\n';
  };
  add_record("meta", EncodeMetaPayload(meta));
  const size_t before_snap = content.size();
  add_record("snap", EncodeSnapPayload(snapshot));
  const int64_t snap_bytes =
      static_cast<int64_t>(content.size() - before_snap);
  if (FileExists(path_)) {
    // Preserve the pre-compaction journal: if the snapshot we are about
    // to publish turns out unreadable, recovery replays `.prev` — which
    // ends exactly at the state the snapshot captured — and then applies
    // whatever was appended after the compaction.
    std::string previous;
    ATENA_RETURN_IF_ERROR(ReadFileToString(path_, &previous));
    ATENA_RETURN_IF_ERROR(AtomicWriteFile(path_ + ".prev", previous));
  }
  ATENA_RETURN_IF_ERROR(AtomicWriteFile(path_, content));
  // The rename above replaced the inode the held descriptor points at;
  // drop it so the next Append reopens the fresh file.
  appender_.Close();
  appended_bytes_ = 0;
  snapshot_bytes_ = snap_bytes;
  return Status::OK();
}

Status SessionJournal::Append(const char* type, std::string_view a,
                              std::string_view b) {
  const std::string line =
      FrameLine(type, Crc32Extend(Crc32Extend(0, a), b), a.size() + b.size());
  if (!appender_.is_open()) {
    ATENA_RETURN_IF_ERROR(appender_.Open(path_));
  }
  ATENA_RETURN_IF_ERROR(
      appender_.AppendParts({line, a, b, std::string_view("\n", 1)}));
  appended_bytes_ +=
      static_cast<int64_t>(line.size() + a.size() + b.size() + 1);
  return Status::OK();
}

Status SessionJournal::Sync() { return appender_.Sync(); }

Status SessionJournal::AppendAdmit(const JournalAdmit& admit) {
  return Append("admit", EncodeAdmitPayload(admit));
}

Status SessionJournal::AppendReload(const JournalReload& reload) {
  return Append("reload", EncodeReloadPayload(reload));
}

Status SessionJournal::AppendTick(const JournalTickBuilder& builder,
                                  bool overloaded) {
  return Append("tick", TickPayloadHeader(overloaded, builder.entries()),
                builder.body());
}

Status SessionJournal::AppendStop(const std::vector<uint64_t>& ids) {
  return Append("stop", EncodeStopPayload(ids));
}

}  // namespace atena
