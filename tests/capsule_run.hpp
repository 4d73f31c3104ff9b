// Runs one program capsule the way the switch does: serialize it, parse
// it in place (ProgramView, code interned through a ProgramCache),
// execute the interned CompiledProgram over the parsed headers, and
// synthesize the reply with proto::encode_executed. Tests assert on the
// reply re-parsed from those wire bytes, so shrink and done-bit behaviour
// is checked on what the switch actually sends.
#pragma once

#include <vector>

#include "active/program_cache.hpp"
#include "packet/active_packet.hpp"
#include "packet/program_view.hpp"
#include "proto/wire.hpp"
#include "runtime/runtime.hpp"

namespace artmt {

// A kDrop verdict leaves `wire` and `reply` empty: the switch sends none.
struct CapsuleRun {
  runtime::ExecutionResult result;
  active::ExecCursor cursor;
  std::vector<u8> wire;        // the reply bytes
  packet::ActivePacket reply;  // `wire` re-parsed
};

inline CapsuleRun run_capsule(runtime::ActiveRuntime& runtime,
                              active::ProgramCache& cache,
                              const packet::ActivePacket& capsule,
                              const runtime::PacketMeta& meta = {},
                              SimTime now = 0) {
  FramePool pool;
  FrameBuf frame(capsule.serialize());
  packet::ProgramView view = packet::ProgramView::parse(frame, cache);
  auto ctx = runtime::ExecContext::over(view.initial, view.arguments,
                                        &view.ethernet);
  CapsuleRun out;
  out.result = runtime.execute(*view.compiled, ctx, out.cursor, meta, now);
  if (out.result.verdict == runtime::Verdict::kDrop) return out;
  out.wire =
      proto::encode_executed(view, out.cursor, std::move(frame), pool)
          .to_vector();
  out.reply = packet::ActivePacket::parse(out.wire);
  return out;
}

// Same, interning through a cache of its own (a cold parse).
inline CapsuleRun run_capsule(runtime::ActiveRuntime& runtime,
                              const packet::ActivePacket& capsule,
                              const runtime::PacketMeta& meta = {},
                              SimTime now = 0) {
  active::ProgramCache cache;
  return run_capsule(runtime, cache, capsule, meta, now);
}

}  // namespace artmt
