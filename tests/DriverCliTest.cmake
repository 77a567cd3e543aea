# Driver CLI contract test, run via `cmake -P` (see tests/CMakeLists.txt).
# Bad inputs must produce a diagnostic and a nonzero exit instead of
# silently analyzing an empty program; --run/--validate must work;
# retired flags are unknown options; folding complete-propagation runs
# and batch mode must print their golden outputs.

if(NOT DEFINED DRIVER OR NOT DEFINED WORK_DIR OR NOT DEFINED GOLDEN_DIR)
  message(FATAL_ERROR "DRIVER, WORK_DIR and GOLDEN_DIR must be defined")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(GOOD_MF "${WORK_DIR}/good.mf")
file(WRITE "${GOOD_MF}" "proc main()
  integer i
  do i = 1, 3
    print i * 10
  end do
end
")

set(FAILURES "")

function(expect_run NAME EXPECT_RC EXPECT_STDERR)
  execute_process(COMMAND ${DRIVER} ${ARGN}
                  RESULT_VARIABLE RC
                  OUTPUT_VARIABLE OUT
                  ERROR_VARIABLE ERR)
  if(EXPECT_RC STREQUAL "zero" AND NOT RC EQUAL 0)
    set(FAILURES "${FAILURES}\n${NAME}: expected success, got rc=${RC}: ${ERR}" PARENT_SCOPE)
    return()
  endif()
  if(EXPECT_RC STREQUAL "nonzero" AND RC EQUAL 0)
    set(FAILURES "${FAILURES}\n${NAME}: expected failure, got rc=0" PARENT_SCOPE)
    return()
  endif()
  if(NOT EXPECT_STDERR STREQUAL "" AND NOT ERR MATCHES "${EXPECT_STDERR}")
    set(FAILURES "${FAILURES}\n${NAME}: stderr '${ERR}' does not match '${EXPECT_STDERR}'" PARENT_SCOPE)
    return()
  endif()
  set(LAST_STDOUT "${OUT}" PARENT_SCOPE)
endfunction()

# Missing input file: diagnostic + nonzero, not an empty-program run.
expect_run(missing_file nonzero "no such file"
           "${WORK_DIR}/does-not-exist.mf")

# A directory as input: an ifstream would silently read nothing.
expect_run(directory_input nonzero "not a regular file" "${WORK_DIR}")

# Unwritable --constants-out: diagnostic + nonzero.
expect_run(bad_constants_out nonzero "cannot write"
           "--constants-out=${WORK_DIR}/no-such-dir/c.txt" "${GOOD_MF}")

# Unknown options still fail loudly.
expect_run(unknown_option nonzero "unknown option" "--bogus" "${GOOD_MF}")

# --run executes the program and prints its trace.
expect_run(run_trace zero "ok" "--run" "${GOOD_MF}")
if(NOT LAST_STDOUT MATCHES "10\n20\n30")
  set(FAILURES "${FAILURES}\nrun_trace: unexpected trace '${LAST_STDOUT}'")
endif()

# --run reports traps with a nonzero exit.
set(TRAP_MF "${WORK_DIR}/trap.mf")
file(WRITE "${TRAP_MF}" "proc main()
  integer z
  print 1 / z
end
")
expect_run(run_trap nonzero "divide-by-zero" "--run" "${TRAP_MF}")

# A program declaring more array cells than an engine may allocate gets
# a structured memory-limit trap from both engines (exit 1), not an
# abort, and --validate still answers.
set(HUGE_MF "${WORK_DIR}/huge.mf")
file(WRITE "${HUGE_MF}" "array buf(4000000000)
proc main()
  buf(1) = 2
  print buf(1)
end
")
foreach(ENGINE vm ast)
  execute_process(COMMAND ${DRIVER} --run --exec=${ENGINE} "${HUGE_MF}"
                  RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 1 OR NOT ERR MATCHES "memory-limit")
    set(FAILURES "${FAILURES}\nrun_huge_${ENGINE}: rc=${RC}, stderr '${ERR}'")
  endif()
  expect_run(validate_huge_${ENGINE} zero "" "--validate" "--exec=${ENGINE}"
             "${HUGE_MF}")
endforeach()

# --validate passes on a well-behaved program, under DCE too.
expect_run(validate zero "" "--validate" "${GOOD_MF}")
if(NOT LAST_STDOUT MATCHES "validation passed")
  set(FAILURES "${FAILURES}\nvalidate: unexpected output '${LAST_STDOUT}'")
endif()
expect_run(validate_complete zero "" "--validate" "--complete" "${GOOD_MF}")

# A formal forwarded twice aliases itself, even when the caller's own
# formal was bound to an expression: w2 writes x and prints y, which
# name the same location, so y must not be substituted with w0's entry
# constant (the reference prints 2 then 7).
set(ALIAS_MF "${WORK_DIR}/forwarded-twice.mf")
file(WRITE "${ALIAS_MF}" "proc main()
  integer a
  a = 1
  call w0(a + 1)
end

proc w0(p1)
  print p1
  call w2(p1, p1)
end

proc w2(x, y)
  x = 7
  print y
end
")
expect_run(forwarded_twice_run zero "" "--run" "${ALIAS_MF}")
if(NOT LAST_STDOUT MATCHES "^2\n7\n")
  set(FAILURES "${FAILURES}\nforwarded_twice_run: unexpected trace '${LAST_STDOUT}'")
endif()
foreach(EXTRA "" "--jf=pass" "--ogvn" "--copy" "--gsa" "--complete" "--no-mod")
  expect_run(forwarded_twice_validate${EXTRA} zero "" "--validate" ${EXTRA}
             "${ALIAS_MF}")
  if(NOT LAST_STDOUT MATCHES "validation passed")
    set(FAILURES "${FAILURES}\nforwarded_twice_validate${EXTRA}: '${LAST_STDOUT}'")
  endif()
endforeach()

# Without MOD a call kills every global, and SCCP recovers g0 after the
# call from w0's return jump function over the globals flowing in. That
# recovery must see g0's phi fall to bottom on the branch that stores
# ga(7), so g0 = 89 is never substituted after the call (the reference
# prints 0).
set(NOMOD_MF "${WORK_DIR}/nomod-call-global-env.mf")
file(WRITE "${NOMOD_MF}" "global g0 = 89
array ga(16)

proc main()
  integer a
  read a
  if (a > 0) then
    g0 = ga(7)
  end if
  call w0()
  print g0
end

proc w0()
end
")
foreach(JF literal intra pass poly)
  expect_run(nomod_call_global_env_${JF} zero "" "--validate" "--no-mod"
             "--jf=${JF}" "${NOMOD_MF}")
  if(NOT LAST_STDOUT MATCHES "validation passed")
    set(FAILURES "${FAILURES}\nnomod_call_global_env_${JF}: '${LAST_STDOUT}'")
  endif()
endforeach()

# Nesting past the parser's limit is a diagnostic and exit code 1, not a
# stack overflow — for analysis and for --run alike.
set(DEEP_MF "${WORK_DIR}/deep.mf")
string(REPEAT "(" 20000 OPEN)
string(REPEAT ")" 20000 CLOSE)
file(WRITE "${DEEP_MF}" "proc main()
  integer x
  x = ${OPEN}1${CLOSE}
  print x
end
")
foreach(MODE "--quiet" "--run")
  execute_process(COMMAND ${DRIVER} ${MODE} "${DEEP_MF}"
                  RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 1 OR NOT ERR MATCHES "nesting too deep")
    set(FAILURES "${FAILURES}\ndeep_nesting${MODE}: rc=${RC}, stderr '${ERR}'")
  endif()
endforeach()

# A good --constants-out write still succeeds.
expect_run(constants_out zero ""
           "--constants-out=${WORK_DIR}/constants.txt" "${GOOD_MF}")
if(NOT EXISTS "${WORK_DIR}/constants.txt")
  set(FAILURES "${FAILURES}\nconstants_out: file not written")
endif()

# --dump-jf builds the jump functions the analysis uses: without MOD it
# must not trip the builder's MOD contract.
expect_run(dump_jf_no_mod zero "" "--suite=ocean" "--dump-jf" "--no-mod")

# ... and the return jump functions it prints are the alias-masked (or,
# with --fsa, flow-gated) ones the solver sees: one `return` line per
# non-bottom return JF, as counted by --stats.
foreach(EXTRA "" "--fsa")
  set(TAG "mdg${EXTRA}")
  expect_run(dump_jf_${TAG} zero "" "--suite=mdg" "--dump-jf" ${EXTRA})
  string(REGEX MATCHALL "(^|\n)return " RETURN_LINES "${LAST_STDOUT}")
  list(LENGTH RETURN_LINES DUMPED)
  expect_run(stats_${TAG} zero "" "--suite=mdg" "--stats" ${EXTRA})
  if(LAST_STDOUT MATCHES "return jump functions: [0-9]+ \\(([0-9]+) const, ([0-9]+) polynomial")
    math(EXPR USED "${CMAKE_MATCH_1} + ${CMAKE_MATCH_2}")
    if(NOT DUMPED EQUAL USED)
      set(FAILURES "${FAILURES}\ndump_jf_${TAG}: ${DUMPED} return lines, analysis uses ${USED}")
    endif()
  else()
    set(FAILURES "${FAILURES}\nstats_${TAG}: no return jump function line in '${LAST_STDOUT}'")
  endif()
endforeach()

# A copy-recovered actual is an ordinary pass-through: under --copy the
# forward breakdown adds up to its total, and --dump-jf prints the
# recovered relays as passthrough(x).
expect_run(copy_stats zero "" "--suite=copychains" "--copy" "--stats")
if(NOT LAST_STDOUT MATCHES "\n  forward jump functions: 16 \\(5 const, 8 pass-through, 1 polynomial, 2 bottom\\)\n")
  set(FAILURES "${FAILURES}\ncopy_stats: forward breakdown in '${LAST_STDOUT}'")
endif()
if(NOT LAST_STDOUT MATCHES "\n  copy loads resolved: 12\n")
  set(FAILURES "${FAILURES}\ncopy_stats: copy loads line in '${LAST_STDOUT}'")
endif()
expect_run(copy_dump_jf zero "" "--suite=copychains" "--copy" "--dump-jf")
if(NOT LAST_STDOUT MATCHES "relay_3_1 -> relay_3_2: x=passthrough\\(x\\)\n")
  set(FAILURES "${FAILURES}\ncopy_dump_jf: no recovered pass-through in '${LAST_STDOUT}'")
endif()

# Complete propagation: the reports and transformed sources of folding
# runs (ocean and spec77 fold one branch; the two-round program folds in
# each of two rounds) and the --validate lines of ocean and spec77 are
# pinned by complete_fold.golden. IPCP_REGEN_GOLDEN=1 rewrites it; a
# mismatch leaves the new output in WORK_DIR/complete_fold.out.
set(TWO_ROUND_MF "${WORK_DIR}/two-round.mf")
file(WRITE "${TWO_ROUND_MF}" "proc q(m)
  print m
end
proc p(k)
  if (k != 5) then
    call q(1)
  end if
  call q(3)
  print k
end
proc main()
  if (0 == 1) then
    call p(99)
  end if
  call p(5)
end
")
set(FOLD_REPORT "")
foreach(PROG "ocean;--suite=ocean" "spec77;--suite=spec77"
             "two-round;${TWO_ROUND_MF}")
  list(POP_FRONT PROG LABEL)
  foreach(EXTRA "" "--no-mod" "--copy" "--gsa")
    expect_run(complete_fold_${LABEL}${EXTRA} zero "" ${PROG} "--complete"
               "--stats" "--emit-source" ${EXTRA})
    string(STRIP "${LABEL} --complete --stats --emit-source ${EXTRA}" RUN)
    string(APPEND FOLD_REPORT "== ${RUN}\n${LAST_STDOUT}")
  endforeach()
endforeach()
foreach(SUITE ocean spec77)
  expect_run(complete_fold_validate_${SUITE} zero "" "--suite=${SUITE}"
             "--validate" "--complete")
  string(APPEND FOLD_REPORT "== ${SUITE} --validate --complete\n"
         "${LAST_STDOUT}")
endforeach()
if(DEFINED ENV{IPCP_REGEN_GOLDEN})
  file(WRITE "${GOLDEN_DIR}/complete_fold.golden" "${FOLD_REPORT}")
endif()
file(READ "${GOLDEN_DIR}/complete_fold.golden" FOLD_GOLDEN)
if(NOT FOLD_REPORT STREQUAL FOLD_GOLDEN)
  file(WRITE "${WORK_DIR}/complete_fold.out" "${FOLD_REPORT}")
  set(FAILURES "${FAILURES}\ncomplete_fold: output differs from complete_fold.golden (see complete_fold.out)")
endif()

# Batch mode: the whole suite under every named configuration prints
# the 195-cell table and its total; only the wall-clock line varies
# between runs. Unknown config sets and the retired --sharing,
# --summary-out and --summary-in flags are refused.
expect_run(configs_all zero "" "--configs=all" "--jobs=2")
string(REGEX REPLACE "\nwall: [^\n]*\n" "\n" BATCH_TABLE "${LAST_STDOUT}")
file(READ "${GOLDEN_DIR}/driver_configs_all.golden" BATCH_GOLDEN)
if(NOT BATCH_TABLE STREQUAL BATCH_GOLDEN)
  set(FAILURES "${FAILURES}\nconfigs_all: table differs from driver_configs_all.golden:\n${LAST_STDOUT}")
endif()
if(NOT BATCH_TABLE MATCHES "total substituted: 22806\n")
  set(FAILURES "${FAILURES}\nconfigs_all: total substituted is not 22806")
endif()
foreach(CASE "configs_bogus;unknown config set;--configs=bogus"
             "sharing_retired;unknown option;--sharing=percell;--configs=all"
             "summary_out_retired;unknown option;--summary-out=${WORK_DIR}/s.json;--suite=mdg"
             "summary_in_retired;unknown option;--summary-in=${WORK_DIR}/s.json;--suite=mdg")
  list(POP_FRONT CASE NAME EXPECT_ERR)
  execute_process(COMMAND ${DRIVER} ${CASE}
                  RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 1 OR NOT ERR MATCHES "${EXPECT_ERR}")
    set(FAILURES "${FAILURES}\n${NAME}: rc=${RC}, stderr '${ERR}'")
  endif()
endforeach()

if(NOT FAILURES STREQUAL "")
  message(FATAL_ERROR "driver CLI test failures:${FAILURES}")
endif()
message(STATUS "driver CLI test passed")
