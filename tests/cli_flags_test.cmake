# Input checks of chameleon_cli (run via `cmake -P`, wired up as the
# chameleon_cli_flags_test ctest). Each case must exit 2 with a message
# naming the offending flag. Every case also passes an unknown
# --dataset, which would exit 1 once a world is built: exit 2 therefore
# proves the check ran before any world.
#
# Expects -DCLI=<chameleon_cli binary>.

function(expect_rejected flag)
  list(JOIN ARGN " " args)
  execute_process(
    COMMAND ${CLI} ${ARGN} --dataset=no-such-dataset
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR
            "chameleon_cli ${args}: exit ${code}, want 2\n${out}${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "chameleon_cli ${args}: stderr does not name ${flag}:\n${err}")
  endif()
endfunction()

# Flags no subcommand accepts.
expect_rejected(--batch-size repair --tau=30 --batch-size=8)
expect_rejected(--batch-window repair --tau=30 --batch-window=5)
# Flags another subcommand accepts are still unknown here.
expect_rejected(--algorithm audit --tau=30 --algorithm=greedy)
expect_rejected(--rejection-batch plan --tau=30 --rejection-batch=4)
# A rejection round needs at least one query.
expect_rejected(--rejection-batch repair --tau=30 --rejection-batch=0)
expect_rejected(--rejection-batch repair --tau=30 --rejection-batch=-3)
