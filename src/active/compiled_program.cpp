#include "active/compiled_program.hpp"

#include "common/error.hpp"

namespace artmt::active {

namespace {

// FNV-1a, 64-bit.
constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
constexpr u64 kFnvPrime = 0x100000001b3ull;

u64 fnv1a(u64 hash, u8 byte) { return (hash ^ byte) * kFnvPrime; }

}  // namespace

FlatKind flat_kind(Opcode op) {
  switch (op) {
    case Opcode::kEof: return FlatKind::kEof;
    case Opcode::kNop: return FlatKind::kNop;
    case Opcode::kAddrMask: return FlatKind::kAddrMask;
    case Opcode::kAddrOffset: return FlatKind::kAddrOffset;
    case Opcode::kHash: return FlatKind::kHash;
    case Opcode::kMbrLoad: return FlatKind::kMbrLoad;
    case Opcode::kMbrStore: return FlatKind::kMbrStore;
    case Opcode::kMbr2Load: return FlatKind::kMbr2Load;
    case Opcode::kMarLoad: return FlatKind::kMarLoad;
    case Opcode::kCopyMbr2Mbr: return FlatKind::kCopyMbr2Mbr;
    case Opcode::kCopyMbrMbr2: return FlatKind::kCopyMbrMbr2;
    case Opcode::kCopyMbrMar: return FlatKind::kCopyMbrMar;
    case Opcode::kCopyMarMbr: return FlatKind::kCopyMarMbr;
    case Opcode::kCopyHashdataMbr: return FlatKind::kCopyHashdataMbr;
    case Opcode::kCopyHashdataMbr2: return FlatKind::kCopyHashdataMbr2;
    case Opcode::kCopyHashdata5Tuple: return FlatKind::kCopyHashdata5Tuple;
    case Opcode::kMbrAddMbr2: return FlatKind::kMbrAddMbr2;
    case Opcode::kMarAddMbr: return FlatKind::kMarAddMbr;
    case Opcode::kMarAddMbr2: return FlatKind::kMarAddMbr2;
    case Opcode::kMarMbrAddMbr2: return FlatKind::kMarMbrAddMbr2;
    case Opcode::kMbrSubtractMbr2: return FlatKind::kMbrSubtractMbr2;
    case Opcode::kBitAndMarMbr: return FlatKind::kBitAndMarMbr;
    case Opcode::kBitOrMbrMbr2: return FlatKind::kBitOrMbrMbr2;
    case Opcode::kMbrEqualsMbr2: return FlatKind::kMbrEqualsMbr2;
    case Opcode::kMax: return FlatKind::kMax;
    case Opcode::kMin: return FlatKind::kMin;
    case Opcode::kRevMin: return FlatKind::kRevMin;
    case Opcode::kSwapMbrMbr2: return FlatKind::kSwapMbrMbr2;
    case Opcode::kMbrNot: return FlatKind::kMbrNot;
    case Opcode::kMbrEqualsData: return FlatKind::kMbrEqualsData;
    case Opcode::kReturn: return FlatKind::kReturn;
    case Opcode::kCret: return FlatKind::kCret;
    case Opcode::kCreti: return FlatKind::kCreti;
    case Opcode::kCjump: return FlatKind::kCjump;
    case Opcode::kCjumpi: return FlatKind::kCjumpi;
    case Opcode::kUjump: return FlatKind::kUjump;
    case Opcode::kMemWrite: return FlatKind::kMemWrite;
    case Opcode::kMemRead: return FlatKind::kMemRead;
    case Opcode::kMemIncrement: return FlatKind::kMemIncrement;
    case Opcode::kMemMinread: return FlatKind::kMemMinread;
    case Opcode::kMemMinreadinc: return FlatKind::kMemMinreadinc;
    case Opcode::kDrop: return FlatKind::kDrop;
    case Opcode::kFork: return FlatKind::kFork;
    case Opcode::kSetDst: return FlatKind::kSetDst;
    case Opcode::kRts: return FlatKind::kRts;
    case Opcode::kCrts: return FlatKind::kCrts;
  }
  return FlatKind::kNop;  // unreachable: compile() rejects unknown bytes
}

u64 CompiledProgram::compute_digest(std::span<const u8> wire_code,
                                    bool preload_mar, bool preload_mbr) {
  u64 hash = kFnvOffset;
  hash = fnv1a(hash, static_cast<u8>((preload_mar ? 1 : 0) |
                                     (preload_mbr ? 2 : 0)));
  for (const u8 byte : wire_code) hash = fnv1a(hash, byte);
  return hash;
}

CompiledProgram CompiledProgram::compile(const Program& source) {
  CompiledProgram out;
  out.preload_mar_ = source.preload_mar;
  out.preload_mbr_ = source.preload_mbr;
  out.code_.reserve(source.size());
  out.wire_.reserve(source.size() * 2);
  for (const Instruction& insn : source.code()) {
    const OpcodeInfo* info = opcode_info(insn.op);
    if (info == nullptr) {
      throw ParseError("CompiledProgram: unknown opcode in program");
    }
    CompiledInsn compiled;
    compiled.op = insn.op;
    compiled.operand = insn.operand;
    compiled.label = insn.label;
    compiled.wire_done = insn.done;
    compiled.memory_access = info->memory_access;
    out.code_.push_back(compiled);
    out.wire_.push_back(static_cast<u8>(insn.op));
    out.wire_.push_back(insn.flag_byte());
  }
  out.link();
  return out;
}

CompiledProgram CompiledProgram::compile(std::span<const u8> wire_code,
                                         bool preload_mar, bool preload_mbr) {
  if (wire_code.size() % 2 != 0) {
    throw ParseError("CompiledProgram: odd-length instruction stream");
  }
  CompiledProgram out;
  out.preload_mar_ = preload_mar;
  out.preload_mbr_ = preload_mbr;
  out.code_.reserve(wire_code.size() / 2);
  out.wire_.assign(wire_code.begin(), wire_code.end());
  for (std::size_t i = 0; i < wire_code.size(); i += 2) {
    const u8 op = wire_code[i];
    const OpcodeInfo* info = opcode_info(op);
    if (info == nullptr || static_cast<Opcode>(op) == Opcode::kEof) {
      throw ParseError("CompiledProgram: bad opcode byte " +
                       std::to_string(op));
    }
    const Instruction insn = Instruction::from_bytes(op, wire_code[i + 1]);
    CompiledInsn compiled;
    compiled.op = insn.op;
    compiled.operand = insn.operand;
    compiled.label = insn.label;
    compiled.wire_done = insn.done;
    compiled.memory_access = info->memory_access;
    out.code_.push_back(compiled);
  }
  out.link();
  return out;
}

void CompiledProgram::link() {
  // next_access: one backward sweep.
  u32 upcoming = kNoIndex;
  for (u32 i = static_cast<u32>(code_.size()); i-- > 0;) {
    code_[i].next_access = upcoming;
    if (code_[i].memory_access) upcoming = i;
  }
  // branch_target: first instruction after the branch carrying its label
  // (label 0 means "no target": the branch disables to the end).
  for (u32 i = 0; i < code_.size(); ++i) {
    code_[i].branch_target = kNoIndex;
    const OpcodeInfo* info = opcode_info(code_[i].op);
    if (!info->branch || code_[i].label == 0) continue;
    for (u32 j = i + 1; j < code_.size(); ++j) {
      if (code_[j].label == code_[i].label) {
        code_[i].branch_target = j;
        break;
      }
    }
  }
  // Lower into the flat-dispatch array the runtime loop consumes: dense
  // opcode index plus the fields resolved above, index-parallel with
  // code_ so wire-facing passes (replies, tracing) keep using code_.
  flat_.resize(code_.size());
  for (u32 i = 0; i < code_.size(); ++i) {
    const CompiledInsn& insn = code_[i];
    FlatOp& op = flat_[i];
    op.kind = flat_kind(insn.op);
    op.operand = insn.operand;
    op.label = insn.label;
    op.memory_access = insn.memory_access;
    op.next_access = insn.next_access;
    op.branch_target = insn.branch_target;
  }
  digest_ = compute_digest(wire_, preload_mar_, preload_mbr_);
}

}  // namespace artmt::active
