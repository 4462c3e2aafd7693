# Records the checked-in benchmark snapshot (BENCH_perf_toolkit.json).
# Invoked by the bench_json target with:
#   -DBENCH_BIN=<perf_toolkit path> -DOUT_JSON=<snapshot path>
#   -DREPO_BUILD_TYPE=<CMAKE_BUILD_TYPE> -DPYTHON=<python3 path>
#   -DEXPERIMENTS_MD=<EXPERIMENTS.md path>
#
# Numbers from an unoptimised build are worse than useless — they get
# committed as the regression baseline — so recording refuses outright
# unless the repo was configured as an optimised build. (google-benchmark's
# own context.library_build_type describes how the *benchmark library* was
# compiled, which on distro packages is often "debug"; the repo build type
# stamped below is the one that governs the recorded timings.)

if(NOT REPO_BUILD_TYPE MATCHES "^(Release|RelWithDebInfo|MinSizeRel)$")
  message(FATAL_ERROR
    "bench_json: refusing to record ${OUT_JSON} from a "
    "'${REPO_BUILD_TYPE}' build. Reconfigure with "
    "-DCMAKE_BUILD_TYPE=Release and re-run.")
endif()

execute_process(
  COMMAND ${BENCH_BIN}
          --benchmark_format=json
          --benchmark_out_format=json
          --benchmark_out=${OUT_JSON}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_json: perf_toolkit exited with ${rc}")
endif()

# Stamp the repo build type into the JSON context, next to google-benchmark's
# library_build_type, so a reader of the snapshot can tell the two apart.
file(READ ${OUT_JSON} content)
string(REPLACE "\"library_build_type\""
       "\"repo_build_type\": \"${REPO_BUILD_TYPE}\",\n    \"library_build_type\""
       content "${content}")
file(WRITE ${OUT_JSON} "${content}")
message(STATUS "bench_json: recorded ${OUT_JSON} (repo ${REPO_BUILD_TYPE})")

# EXPERIMENTS.md quotes the snapshot; re-render its toolkit paragraph so the
# experiments_toolkit_paragraph ctest keeps passing.
if(NOT PYTHON)
  message(FATAL_ERROR "bench_json: Python 3 is needed to re-render "
                      "${EXPERIMENTS_MD}'s toolkit paragraph")
endif()
execute_process(
  COMMAND ${PYTHON} ${CMAKE_CURRENT_LIST_DIR}/toolkit_paragraph.py
          --json ${OUT_JSON} --doc ${EXPERIMENTS_MD}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_json: toolkit_paragraph.py exited with ${rc}")
endif()
