//===- exec/Bytecode.cpp - MiniFort bytecode representation ---------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/Bytecode.h"

#include <sstream>

using namespace ipcp;

const char *ipcp::opName(Op O) {
  switch (O) {
  case Op::PushConst:
    return "push";
  case Op::LoadGlobal:
    return "ld.g";
  case Op::LoadLocal:
    return "ld.l";
  case Op::LoadFormal:
    return "ld.f";
  case Op::StoreGlobal:
    return "st.g";
  case Op::StoreLocal:
    return "st.l";
  case Op::StoreFormal:
    return "st.f";
  case Op::LoadArrGlobal:
    return "ldarr.g";
  case Op::LoadArrLocal:
    return "ldarr.l";
  case Op::AddrArrGlobal:
    return "addr.g";
  case Op::AddrArrLocal:
    return "addr.l";
  case Op::StoreArrGlobal:
    return "starr.g";
  case Op::StoreArrLocal:
    return "starr.l";
  case Op::Add:
    return "add";
  case Op::Sub:
    return "sub";
  case Op::Mul:
    return "mul";
  case Op::Div:
    return "div";
  case Op::Mod:
    return "mod";
  case Op::CmpEq:
    return "ceq";
  case Op::CmpNe:
    return "cne";
  case Op::CmpLt:
    return "clt";
  case Op::CmpLe:
    return "cle";
  case Op::CmpGt:
    return "cgt";
  case Op::CmpGe:
    return "cge";
  case Op::LogAnd:
    return "and";
  case Op::LogOr:
    return "or";
  case Op::Neg:
    return "neg";
  case Op::LogNot:
    return "not";
  case Op::Jump:
    return "jmp";
  case Op::JumpIfZero:
    return "jz";
  case Op::Step:
    return "step";
  case Op::Print:
    return "print";
  case Op::Read:
    return "read";
  case Op::CheckCall:
    return "ckcall";
  case Op::ArgValue:
    return "arg.v";
  case Op::ArgCellGlobal:
    return "arg.g";
  case Op::ArgCellLocal:
    return "arg.l";
  case Op::ArgCellFormal:
    return "arg.f";
  case Op::Call:
    return "call";
  case Op::Ret:
    return "ret";
  }
  return "?";
}

namespace {

bool hasAOperand(Op O) {
  switch (O) {
  case Op::PushConst:
  case Op::LoadGlobal:
  case Op::LoadLocal:
  case Op::LoadFormal:
  case Op::StoreGlobal:
  case Op::StoreLocal:
  case Op::StoreFormal:
  case Op::LoadArrGlobal:
  case Op::LoadArrLocal:
  case Op::AddrArrGlobal:
  case Op::AddrArrLocal:
  case Op::Jump:
  case Op::JumpIfZero:
  case Op::ArgCellGlobal:
  case Op::ArgCellLocal:
  case Op::ArgCellFormal:
  case Op::Call:
    return true;
  default:
    return false;
  }
}

bool hasLocOperand(Op O) {
  switch (O) {
  case Op::LoadArrGlobal:
  case Op::LoadArrLocal:
  case Op::AddrArrGlobal:
  case Op::AddrArrLocal:
  case Op::Div:
  case Op::Mod:
  case Op::Step:
  case Op::CheckCall:
  case Op::Call:
    return true;
  default:
    return false;
  }
}

} // namespace

std::string CodeProgram::str() const {
  std::ostringstream OS;
  for (size_t P = 0; P != Procs.size(); ++P) {
    const CodeObject &CO = Procs[P];
    OS << "proc " << CO.Name << " (#" << P << ")"
       << (P == Entry ? " [entry]" : "") << ": " << CO.NumFormals
       << " formals, " << CO.FrameSlots << " frame slots, stack "
       << CO.MaxStack << "\n";
    for (size_t I = 0; I != CO.Code.size(); ++I) {
      const Inst &In = CO.Code[I];
      OS << "  " << I << ": " << opName(In.Opcode);
      if (In.Opcode == Op::PushConst)
        OS << " " << CO.Consts[In.A];
      else if (hasAOperand(In.Opcode))
        OS << " " << In.A;
      if (hasLocOperand(In.Opcode))
        OS << " @" << CO.Locs[In.B].str();
      else if (In.B)
        OS << " #" << In.B; // VarRefExpr id feeding OnVarUse.
      OS << "\n";
    }
  }
  return OS.str();
}
