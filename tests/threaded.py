"""An indirect-threaded MCRL program, the kind of code the paper compacts.

SPITBOL's object code is indirect threaded code: a list of code-word
addresses that an inner interpreter, NEXT, walks.  Here NEXT is
LCW XR (load the word at XL into XR and step XL) then BRI XR (branch
to it).  PROGRAM first builds its word list in RAM at 7000 with
MOV =LABEL, d(XR), one word per cell, then runs it through the
primitives LIT (push the next list word), PLUS, DUP, DOT (print and
pop) and BYE (halt).  Its list is

    LIT 5, LIT 7, PLUS, DOT, LIT 3, DUP, PLUS, DOT, BYE

so it prints 12, then 6.

The limit: compaction moves code, so a program keeps its behaviour
only while code addresses go into memory and come back only to BRI.
They are never output or used in arithmetic, and PROGRAM keeps to
that.

Print the program with
    python -c "import sys; sys.path.insert(0, 'tests'); import threaded; print(threaded.PROGRAM, end='')"
"""

PROGRAM = """\
       MOV =7000, XR
       MOV =LIT, 0(XR)
       MOV =5, 2(XR)
       MOV =LIT, 4(XR)
       MOV =7, 6(XR)
       MOV =PLUS, 8(XR)
       MOV =DOT, A(XR)
       MOV =LIT, C(XR)
       MOV =3, E(XR)
       MOV =DUP, 10(XR)
       MOV =PLUS, 12(XR)
       MOV =DOT, 14(XR)
       MOV =BYE, 16(XR)
       MOV =7000, XL
       LCW XR
       BRI XR
LIT    LCW WA
       MOV WA, -(XS)
       LCW XR
       BRI XR
PLUS   MOV (XS)+, WA
       ADD WA, 0(XS)
       LCW XR
       BRI XR
DUP    MOV 0(XS), -(XS)
       LCW XR
       BRI XR
DOT    OUT (XS)+
       LCW XR
       BRI XR
BYE    HLT
"""

PLAIN_BYTES = 100  # the assembled code
STEPS = 46         # instructions the plain run executes, HLT included
TRACE = [5 + 7, 3 + 3]
