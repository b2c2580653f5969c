# Fails unless each function in FUNCTIONS is defined in one of OBJECTS and
# its disassembly holds a PREFETCHW. The task pool fetches each next free
# block for writing (SlabPool::take_block, inlined into
# Runtime::allocate_task), and a spawn's prefetch pass fetches each
# parameter's chain head for writing (DependencyAnalyzer::prefetch_head).
# Without PRFCHW in the build flags GCC compiles __builtin_prefetch(p, 1) to
# a read prefetch, so common/prefetch.hpp issues the instruction itself.
# The check is per function: the version and edge pools inline the pool's
# prefetch into other functions of the same objects. Only x86-64 has the
# instruction; elsewhere the check skips.
#
#   cmake -DOBJDUMP=<objdump> -DPROCESSOR=<cpu> -DOBJECTS=<a.o;b.o>
#         -DFUNCTIONS=<ns::Class::fn;...> -P check_write_prefetch.cmake
if(NOT PROCESSOR MATCHES "^(x86_64|AMD64|amd64)$")
  message("not x86-64 (${PROCESSOR}): the write-prefetch check is skipped")
  return()
endif()
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("objdump not found: the write-prefetch check is skipped")
  return()
endif()
if(NOT OBJECTS OR NOT FUNCTIONS)
  message(FATAL_ERROR "no object files or no functions to check")
endif()
set(asm "")
foreach(obj IN LISTS OBJECTS)
  execute_process(COMMAND "${OBJDUMP}" -d -C "${obj}"
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d ${obj} failed (${rc})")
  endif()
  string(APPEND asm "${out}\n")
endforeach()
foreach(fn IN LISTS FUNCTIONS)
  # objdump heads each function with "<address> <name(args)>:" on a line of
  # its own and ends it with a blank line; a call site names it too, so
  # match the heading.
  string(REGEX MATCH "\n[0-9a-f]+ <${fn}\\([^\n]*>:\n" heading "${asm}")
  if(NOT heading)
    message(FATAL_ERROR "${fn} is not defined in ${OBJECTS}")
  endif()
  string(FIND "${asm}" "${heading}" at)
  string(SUBSTRING "${asm}" ${at} -1 body)
  string(SUBSTRING "${body}" 1 -1 body)
  string(FIND "${body}" "\n\n" end)
  string(SUBSTRING "${body}" 0 ${end} body)
  string(REGEX MATCHALL "[ \t]prefetchw[ \t]" found "${body}")
  list(LENGTH found count)
  if(count EQUAL 0)
    message(FATAL_ERROR "${fn}: no prefetchw")
  endif()
  message("${fn}: ${count} prefetchw")
endforeach()
