# Fails when an FNV-1a constant appears in src/, bench/, tests/ or tools/
# outside src/sim/digest.hpp, so every fingerprint goes through
# sim::Digest rather than a private copy of the hash:
#
#   cmake -DSOURCE_DIR=<repo root> -P digest_guard.cmake
#
# The literals are assembled from pieces so this file does not match
# itself. The short basis is a prefix of the full offset basis, so it
# catches both seeds.
string(CONCAT prime "10995" "11628211")
string(CONCAT basis "1469598" "103934665603")
file(GLOB_RECURSE files LIST_DIRECTORIES false
     "${SOURCE_DIR}/src/*" "${SOURCE_DIR}/bench/*"
     "${SOURCE_DIR}/tests/*" "${SOURCE_DIR}/tools/*")
set(found FALSE)
foreach(f ${files})
  if(f STREQUAL "${SOURCE_DIR}/src/sim/digest.hpp")
    continue()
  endif()
  file(STRINGS "${f}" hits REGEX "${prime}|${basis}")
  foreach(line ${hits})
    message("${f}: ${line}")
    set(found TRUE)
  endforeach()
endforeach()
if(found)
  message(FATAL_ERROR "FNV-1a constants belong in src/sim/digest.hpp; "
                      "fold through sim::Digest instead")
endif()
