# Checks that README.md's "Environment knobs" table lists exactly the QIP_*
# environment variables the code reads.  Invoked by ctest (knob_table) as
#
#   cmake -DSOURCE_DIR=<repo root> -P check_knob_table.cmake
#
# Code side: every "QIP_[A-Z0-9_]+" string literal in the C++ sources under
# src/, bench/, tools/ and examples/ — each such literal names an
# environment variable.  Docs side: the backquoted QIP_* name opening each
# row of the table under the "## Environment knobs" heading.  The check
# fails on a name the code reads that the table lacks, and on a row no code
# reads any more (a knob whose reader was deleted while its docs stayed).
if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "check_knob_table.cmake needs -DSOURCE_DIR=...")
endif()

set(code_names)
foreach(dir src bench tools examples)
  file(GLOB_RECURSE sources "${SOURCE_DIR}/${dir}/*.cpp"
                            "${SOURCE_DIR}/${dir}/*.hpp")
  foreach(source IN LISTS sources)
    file(READ "${source}" text)
    string(REGEX MATCHALL "\"QIP_[A-Z0-9_]+\"" hits "${text}")
    foreach(hit IN LISTS hits)
      string(REPLACE "\"" "" name "${hit}")
      list(APPEND code_names "${name}")
    endforeach()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES code_names)
list(SORT code_names)

# The table is the README text from its heading up to the next "## ".
file(READ "${SOURCE_DIR}/README.md" readme)
string(FIND "${readme}" "\n## Environment knobs\n" start)
if(start EQUAL -1)
  message(FATAL_ERROR "README.md has no '## Environment knobs' section")
endif()
math(EXPR start "${start} + 1")
string(SUBSTRING "${readme}" ${start} -1 section)
string(FIND "${section}" "\n## " end)
if(NOT end EQUAL -1)
  string(SUBSTRING "${section}" 0 ${end} section)
endif()
string(REGEX MATCHALL "\n\\| `QIP_[A-Z0-9_]+` \\|" rows "${section}")
set(doc_names)
foreach(row IN LISTS rows)
  string(REGEX REPLACE "^\n\\| `(QIP_[A-Z0-9_]+)` \\|$" "\\1" name "${row}")
  list(APPEND doc_names "${name}")
endforeach()

set(problems)
foreach(name IN LISTS code_names)
  list(FIND doc_names "${name}" at)
  if(at EQUAL -1)
    string(APPEND problems "\n  ${name}: read by the code, missing from the table")
  endif()
endforeach()
set(seen)
foreach(name IN LISTS doc_names)
  list(FIND code_names "${name}" at)
  if(at EQUAL -1)
    string(APPEND problems "\n  ${name}: in the table, read by no code")
  endif()
  list(FIND seen "${name}" dup)
  if(NOT dup EQUAL -1)
    string(APPEND problems "\n  ${name}: listed twice")
  endif()
  list(APPEND seen "${name}")
endforeach()

if(problems)
  message(FATAL_ERROR
      "README.md's Environment knobs table is out of date:${problems}")
endif()
list(LENGTH code_names count)
message(STATUS "knob table lists all ${count} QIP_* variables the code reads")
