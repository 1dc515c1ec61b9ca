# Re-runs the cheap full figure sweeps and byte-compares each CSV with the
# checked-in copy under results/, so a change that moves any reproduced
# figure fails the test suite.
#
#   cmake -DBENCH_DIR=<build>/bench -DRESULTS_DIR=<source>/results \
#         -DWORK_DIR=<scratch dir> -P results_golden.cmake

set(figures
  fig04_thttpd_poll_load1
  fig05_thttpd_devpoll_load1
  fig06_thttpd_poll_load251
  fig08_thttpd_poll_load501
  fig11_phhttpd_load1
  fig12_phhttpd_load251
  fig13_phhttpd_load501
)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(mismatched "")
foreach(figure ${figures})
  string(SUBSTRING "${figure}" 0 5 id)
  execute_process(COMMAND "${BENCH_DIR}/bench_${figure}"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE run_status
                  OUTPUT_QUIET)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/${id}.csv" "${RESULTS_DIR}/${id}.csv"
                  RESULT_VARIABLE compare_status)
  if(NOT run_status EQUAL 0 OR NOT compare_status EQUAL 0)
    list(APPEND mismatched "${id}")
  endif()
endforeach()

if(mismatched)
  message(FATAL_ERROR "results/ no longer reproduces byte for byte: ${mismatched}")
endif()
