# Fails when the disassembly of an object in OBJECTS holds a fused
# multiply-add (vfmadd, vfmsub, vfnmadd, vfnmsub and their variants). The
# BLAS tables are bit-identical to each other and to ref only while every
# multiply and add rounds on its own; AVX-512F has fused instructions of its
# own, so only -ffp-contract=off keeps the compiler from using them.
#
#   cmake -DOBJDUMP=<objdump> -DOBJECTS=<a.o;b.o> -P check_no_fma.cmake
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("objdump not found: the fused multiply-add check is skipped")
  return()
endif()
if(NOT OBJECTS)
  message(FATAL_ERROR "no object files to check")
endif()
foreach(obj IN LISTS OBJECTS)
  execute_process(COMMAND "${OBJDUMP}" -d "${obj}"
    OUTPUT_VARIABLE asm RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d ${obj} failed (${rc})")
  endif()
  string(REGEX MATCHALL "vfn?m(add|sub)[a-z0-9]*" fused "${asm}")
  list(LENGTH fused count)
  if(count GREATER 0)
    list(REMOVE_DUPLICATES fused)
    message(FATAL_ERROR "${obj}: ${count} fused multiply-adds (${fused})")
  endif()
  message("${obj}: no fused multiply-add")
endforeach()
