# Fails when the disassembly of OBJECT holds no PREFETCHW. The task pool
# fetches each next free block for writing (SlabPool::take_block, inlined
# into Runtime::allocate_task); without PRFCHW in the build flags GCC
# compiles __builtin_prefetch(p, 1) to a read prefetch, so the pool issues
# the instruction itself. Only x86-64 has it; elsewhere the check skips.
#
#   cmake -DOBJDUMP=<objdump> -DPROCESSOR=<cpu> -DOBJECT=<runtime.cpp.o>
#         -P check_write_prefetch.cmake
if(NOT PROCESSOR MATCHES "^(x86_64|AMD64|amd64)$")
  message("not x86-64 (${PROCESSOR}): the write-prefetch check is skipped")
  return()
endif()
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("objdump not found: the write-prefetch check is skipped")
  return()
endif()
if(NOT OBJECT)
  message(FATAL_ERROR "no object file to check")
endif()
execute_process(COMMAND "${OBJDUMP}" -d "${OBJECT}"
  OUTPUT_VARIABLE asm RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${OBJECT} failed (${rc})")
endif()
string(REGEX MATCHALL "[ \t]prefetchw[ \t]" found "${asm}")
list(LENGTH found count)
if(count EQUAL 0)
  message(FATAL_ERROR "${OBJECT}: no prefetchw")
endif()
message("${OBJECT}: ${count} prefetchw")
