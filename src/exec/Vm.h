//===- exec/Vm.h - MiniFort bytecode virtual machine ------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode VM: a tight dispatch loop (computed goto on GCC/Clang,
/// portable switch elsewhere — see vmDispatchMode()) over
/// exec/Bytecode.h code objects. It is the oracle's and the fuzzer's execution hot
/// path; the AST interpreter (exec/Interpreter.h) remains the normative
/// semantics, and the VM reproduces its observable behavior exactly —
/// PRINT trace, READ consumption, step accounting, trap kinds and
/// locations, hook firing, and final global/array state. The check-vm
/// differential test wall (tests/VmDifferentialTests.cpp) enforces the
/// equivalence; SpeedGate.VmOutrunsAstOnFuzzWorkload (check-bench) gates
/// the speedup that justifies the second engine.
///
/// Design notes. Values live on one preallocated operand stack sized by
/// the compiler (statements never leave residue, so frames share it and
/// no bounds checks run in the loop). Activations are kept in a
/// per-depth pool of flat slot vectors: frames are strictly LIFO, and a
/// depth's buffer is only ever resized while no deeper frame exists, so
/// the by-reference cells handed to callees stay stable without
/// per-call heap allocation. All run state (stack, globals, frame
/// pool) lives in thread-local scratch reused across runs — the
/// fuzzer/oracle workload is many microsecond-scale runs, where per-run
/// allocation would dominate — and every buffer is re-initialized per
/// run, so reuse never leaks state between runs (re-entrant runs from
/// hooks fall back to local buffers). Traps unwind by direct branch out
/// of the dispatch loop — no exceptions on the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_EXEC_VM_H
#define IPCP_EXEC_VM_H

#include "exec/Bytecode.h"
#include "exec/Interpreter.h"

namespace ipcp {

/// Which dispatch strategy this build of the VM compiled in:
/// "computed-goto" on compilers with labels-as-values (GCC/Clang),
/// "switch" otherwise or when built with -DIPCP_VM_SWITCH_DISPATCH=ON.
/// Both expand identical handler bodies; the bench reports the mode so
/// throughput numbers are attributable.
const char *vmDispatchMode();

/// Executes compiled MiniFort programs. Stateless between runs like the
/// interpreter: run() may be called repeatedly and concurrently from
/// multiple threads on the same instance.
class Vm {
public:
  /// \p Code must outlive the VM.
  explicit Vm(const CodeProgram &Code) : CP(Code) {}

  /// Executes from the entry procedure to completion, trap, or limit.
  RunResult run(const RunOptions &Opts,
                const ExecHooks *Hooks = nullptr) const;

private:
  const CodeProgram &CP;
};

} // namespace ipcp

#endif // IPCP_EXEC_VM_H
