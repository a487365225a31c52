# Writes OUT as a one-line header defining COSMOFLOW_GIT_SHA from
# `git describe --always --dirty` in SRC ("unknown" outside a git
# checkout). Run at build time, so the stamp names the code the bench
# was compiled from; the file is rewritten only when the text changes,
# so an unchanged tree does not recompile the bench.
#
#   cmake -DSRC=<repo> -DOUT=<header> -P git_stamp.cmake
execute_process(COMMAND git describe --always --dirty
                WORKING_DIRECTORY "${SRC}"
                OUTPUT_VARIABLE sha
                OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE status
                ERROR_QUIET)
if(NOT status EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
endif()
set(text "#define COSMOFLOW_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUT}" "${text}")
endif()
