# Checks the reproduction suite against bench/manifest.sha256.
#
#   cmake -DTOPFULL=<topfull> -DMANIFEST=<manifest.sha256> -DNAME=<entry> -P check_manifest.cmake
#     runs `topfull bench <entry>`; it must exit 0 with non-empty stdout
#     whose SHA-256 equals the entry's manifest line. TOPFULL_STRICT_GOLDEN=0
#     skips the digest (a foreign libm moves the figures' last digits). On a
#     mismatch the stdout is kept as suite.<entry>.stdout for diffing.
#
#   cmake -DTOPFULL=<topfull> -DMANIFEST=<manifest.sha256> -P check_manifest.cmake
#     requires `topfull bench --list` to name exactly the manifest's
#     entries, in the same order.
file(STRINGS "${MANIFEST}" lines REGEX "^[0-9a-f]+  ")
set(names "")
foreach(line IN LISTS lines)
  string(REGEX MATCH "^([0-9a-f]+)  (.+)$" _ "${line}")
  list(APPEND names "${CMAKE_MATCH_2}")
  set(digest_${CMAKE_MATCH_2} "${CMAKE_MATCH_1}")
endforeach()

if(NOT DEFINED NAME)
  execute_process(COMMAND "${TOPFULL}" bench --list
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "topfull bench --list exited ${rc}: ${err}")
  endif()
  string(REGEX REPLACE "\n$" "" out "${out}")
  string(REPLACE "\n" ";" listed "${out}")
  list(TRANSFORM listed REPLACE " .*$" "")
  if(NOT listed STREQUAL names)
    message(FATAL_ERROR "topfull bench --list names\n  ${listed}\n"
                        "but the manifest names\n  ${names}")
  endif()
  list(LENGTH names count)
  message(STATUS "suite table and manifest agree on ${count} entries")
  return()
endif()

if(NOT DEFINED digest_${NAME})
  message(FATAL_ERROR "no manifest line for '${NAME}'")
endif()
execute_process(COMMAND "${TOPFULL}" bench "${NAME}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "topfull bench ${NAME} exited ${rc}:\n${err}")
endif()
if(out STREQUAL "")
  message(FATAL_ERROR "topfull bench ${NAME} printed nothing")
endif()
if("$ENV{TOPFULL_STRICT_GOLDEN}" STREQUAL "0")
  message(STATUS "${NAME}: exit 0, stdout not checked (TOPFULL_STRICT_GOLDEN=0)")
  return()
endif()
string(SHA256 digest "${out}")
if(NOT digest STREQUAL digest_${NAME})
  file(WRITE "suite.${NAME}.stdout" "${out}")
  message(FATAL_ERROR
    "topfull bench ${NAME}: stdout SHA-256 ${digest} does not match the "
    "manifest's ${digest_${NAME}}; the output is in "
    "${CMAKE_CURRENT_BINARY_DIR}/suite.${NAME}.stdout. If the figure moved on "
    "purpose, update bench/manifest.sha256 and say why in CHANGES.md.")
endif()
message(STATUS "${NAME}: stdout matches the manifest")
