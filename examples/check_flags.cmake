# Runs an example with a command line that must stop before any work,
# and checks how it stopped: the exit code, the usage line, and that
# the output directory was never created. Used by the
# examples.generate_dataset_* ctests:
#
#   cmake -DEXE=<binary> -DOUT=<dir> -DARGS="<flags>" -DEXIT=<code>
#         -P check_flags.cmake
file(REMOVE_RECURSE "${OUT}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" "--out=${OUT}" ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit ${code}, expected ${EXIT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "usage: ")
  message(FATAL_ERROR "no usage line printed\n${out}${err}")
endif()
if(EXISTS "${OUT}")
  file(REMOVE_RECURSE "${OUT}")
  message(FATAL_ERROR "ran before rejecting its flags: wrote ${OUT}")
endif()
