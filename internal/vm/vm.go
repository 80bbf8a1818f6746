// Package vm implements a small stack-machine contract runtime.
//
// The paper executes contracts inside an EVM, whose essential property
// is that read/write sets are indeterminate before execution. This VM
// reproduces that property with a fraction of the surface: programs
// are Turing-complete (conditional branches over an integer stack),
// construct storage keys dynamically from arguments, and perform
// <Read,K> / <Write,K,V> operations through the same contract.State
// accessor native contracts use — so the Concurrent Executor treats
// both identically.
//
// A step budget bounds runaway programs, playing the role of gas.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/types"
)

// Opcode is one VM instruction.
type Opcode byte

// Instruction set. Immediates are big-endian and follow the opcode:
// Push carries 8 bytes; Jmp/Jz carry 4; SConst/SArg carry 2.
const (
	OpHalt  Opcode = iota + 1 // stop successfully
	OpAbort                   // stop with a contract failure

	OpPush // push int64 immediate
	OpPop  // discard top
	OpDup  // duplicate top
	OpSwap // swap top two

	OpAdd // a b -> a+b
	OpSub // a b -> a-b
	OpMul // a b -> a*b
	OpDiv // a b -> a/b (division by zero aborts)
	OpNeg // a -> -a

	OpEq  // a b -> a==b (1/0)
	OpLt  // a b -> a<b
	OpGt  // a b -> a>b
	OpNot // a -> !a

	OpJmp // unconditional jump to absolute offset
	OpJz  // pop; jump if zero

	OpSConst // push string-pool constant onto string stack
	OpSArg   // push call argument onto string stack
	OpSCat   // s1 s2 -> s1+s2 on string stack

	OpArgI // push call argument decoded as int64 onto int stack

	OpLoad  // pop key from string stack; push int64 cell value
	OpStore // pop key from string stack, pop int64; write cell

	opMax
)

var opNames = map[Opcode]string{
	OpHalt: "halt", OpAbort: "abort", OpPush: "push", OpPop: "pop",
	OpDup: "dup", OpSwap: "swap", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpDiv: "div", OpNeg: "neg", OpEq: "eq", OpLt: "lt",
	OpGt: "gt", OpNot: "not", OpJmp: "jmp", OpJz: "jz",
	OpSConst: "sconst", OpSArg: "sarg", OpSCat: "scat",
	OpArgI: "argi", OpLoad: "load", OpStore: "store",
}

func (o Opcode) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Program is a compiled contract: a byte-string constant pool plus
// bytecode. Programs travel inside Transaction.Code.
type Program struct {
	Consts [][]byte
	Code   []byte
}

// MarshalBinary encodes the program for embedding in a transaction.
func (p *Program) MarshalBinary() ([]byte, error) {
	e := types.NewEncoder()
	e.U32(uint32(len(p.Consts)))
	for _, c := range p.Consts {
		e.Bytes(c)
	}
	e.Bytes(p.Code)
	return e.Sum(), nil
}

// UnmarshalBinary decodes a program.
func (p *Program) UnmarshalBinary(b []byte) error {
	d := types.NewDecoder(b)
	n := d.U32()
	p.Consts = make([][]byte, 0, min(int(n), d.Remaining()/4)) // length prefix each
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		p.Consts = append(p.Consts, d.Bytes())
	}
	p.Code = d.Bytes()
	return d.Finish()
}

// Limits bound one execution.
type Limits struct {
	// MaxSteps is the instruction budget (gas). Zero means the
	// DefaultMaxSteps budget.
	MaxSteps int
	// MaxStack bounds both stacks. Zero means DefaultMaxStack.
	MaxStack int
}

// Default execution budgets.
const (
	DefaultMaxSteps = 1 << 16
	DefaultMaxStack = 256
)

// Execution errors. ErrOutOfGas and friends are terminal contract
// failures; controller aborts pass through unchanged so the executor
// can retry.
var (
	ErrOutOfGas      = errors.New("vm: step budget exhausted")
	ErrStackOverflow = errors.New("vm: stack overflow")
	ErrStack         = errors.New("vm: stack underflow")
	ErrTruncated     = errors.New("vm: truncated instruction")
	ErrBadJump       = errors.New("vm: jump out of range")
)

// Run executes the program against st with the given arguments.
func Run(p *Program, st contract.State, args [][]byte, lim Limits) error {
	if lim.MaxSteps <= 0 {
		lim.MaxSteps = DefaultMaxSteps
	}
	if lim.MaxStack <= 0 {
		lim.MaxStack = DefaultMaxStack
	}
	m := machine{prog: p, st: st, args: args, lim: lim}
	return m.run()
}

type machine struct {
	prog *Program
	st   contract.State
	args [][]byte
	lim  Limits

	pc    int
	stack []int64
	sstk  [][]byte
}

func (m *machine) push(v int64) error {
	if len(m.stack) >= m.lim.MaxStack {
		return ErrStackOverflow
	}
	m.stack = append(m.stack, v)
	return nil
}

func (m *machine) pop() (int64, error) {
	if len(m.stack) == 0 {
		return 0, ErrStack
	}
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v, nil
}

func (m *machine) spush(b []byte) error {
	if len(m.sstk) >= m.lim.MaxStack {
		return ErrStackOverflow
	}
	m.sstk = append(m.sstk, b)
	return nil
}

func (m *machine) spop() ([]byte, error) {
	if len(m.sstk) == 0 {
		return nil, ErrStack
	}
	v := m.sstk[len(m.sstk)-1]
	m.sstk = m.sstk[:len(m.sstk)-1]
	return v, nil
}

func (m *machine) imm(n int) ([]byte, error) {
	if m.pc+n > len(m.prog.Code) {
		return nil, ErrTruncated
	}
	b := m.prog.Code[m.pc : m.pc+n]
	m.pc += n
	return b, nil
}

func (m *machine) run() error {
	code := m.prog.Code
	for steps := 0; ; steps++ {
		if steps >= m.lim.MaxSteps {
			return fmt.Errorf("%w: %w", contract.ErrContractFailure, ErrOutOfGas)
		}
		if m.pc >= len(code) {
			return nil // falling off the end halts
		}
		op := Opcode(code[m.pc])
		m.pc++
		if err := m.step(op); err != nil {
			if errors.Is(err, contract.ErrAborted) || errors.Is(err, contract.ErrContractFailure) {
				return err
			}
			return fmt.Errorf("%w: pc=%d op=%s: %w", contract.ErrContractFailure, m.pc-1, op, err)
		}
		if op == OpHalt {
			return nil
		}
	}
}

func (m *machine) step(op Opcode) error {
	switch op {
	case OpHalt:
		return nil
	case OpAbort:
		return contract.Failf("vm: explicit abort at pc=%d", m.pc-1)
	case OpPush:
		b, err := m.imm(8)
		if err != nil {
			return err
		}
		return m.push(int64(binary.BigEndian.Uint64(b)))
	case OpPop:
		_, err := m.pop()
		return err
	case OpDup:
		v, err := m.pop()
		if err != nil {
			return err
		}
		if err := m.push(v); err != nil {
			return err
		}
		return m.push(v)
	case OpSwap:
		a, err := m.pop()
		if err != nil {
			return err
		}
		b, err := m.pop()
		if err != nil {
			return err
		}
		if err := m.push(a); err != nil {
			return err
		}
		return m.push(b)
	case OpAdd, OpSub, OpMul, OpDiv, OpEq, OpLt, OpGt:
		b, err := m.pop()
		if err != nil {
			return err
		}
		a, err := m.pop()
		if err != nil {
			return err
		}
		var r int64
		switch op {
		case OpAdd:
			r = a + b
		case OpSub:
			r = a - b
		case OpMul:
			r = a * b
		case OpDiv:
			if b == 0 {
				return errors.New("division by zero")
			}
			r = a / b
		case OpEq:
			r = b2i(a == b)
		case OpLt:
			r = b2i(a < b)
		case OpGt:
			r = b2i(a > b)
		}
		return m.push(r)
	case OpNeg:
		v, err := m.pop()
		if err != nil {
			return err
		}
		return m.push(-v)
	case OpNot:
		v, err := m.pop()
		if err != nil {
			return err
		}
		return m.push(b2i(v == 0))
	case OpJmp:
		b, err := m.imm(4)
		if err != nil {
			return err
		}
		return m.jump(int(binary.BigEndian.Uint32(b)))
	case OpJz:
		b, err := m.imm(4)
		if err != nil {
			return err
		}
		v, err := m.pop()
		if err != nil {
			return err
		}
		if v == 0 {
			return m.jump(int(binary.BigEndian.Uint32(b)))
		}
		return nil
	case OpSConst:
		b, err := m.imm(2)
		if err != nil {
			return err
		}
		i := int(binary.BigEndian.Uint16(b))
		if i >= len(m.prog.Consts) {
			return fmt.Errorf("const index %d out of range", i)
		}
		return m.spush(m.prog.Consts[i])
	case OpSArg:
		b, err := m.imm(2)
		if err != nil {
			return err
		}
		i := int(binary.BigEndian.Uint16(b))
		if i >= len(m.args) {
			return fmt.Errorf("arg index %d out of range", i)
		}
		return m.spush(m.args[i])
	case OpSCat:
		b, err := m.spop()
		if err != nil {
			return err
		}
		a, err := m.spop()
		if err != nil {
			return err
		}
		cat := make([]byte, 0, len(a)+len(b))
		cat = append(cat, a...)
		cat = append(cat, b...)
		return m.spush(cat)
	case OpArgI:
		b, err := m.imm(2)
		if err != nil {
			return err
		}
		i := int(binary.BigEndian.Uint16(b))
		if i >= len(m.args) {
			return fmt.Errorf("arg index %d out of range", i)
		}
		v, err := contract.DecodeInt64(m.args[i])
		if err != nil {
			return err
		}
		return m.push(v)
	case OpLoad:
		k, err := m.spop()
		if err != nil {
			return err
		}
		v, err := contract.ReadInt64(m.st, types.Key(k))
		if err != nil {
			return err
		}
		return m.push(v)
	case OpStore:
		k, err := m.spop()
		if err != nil {
			return err
		}
		v, err := m.pop()
		if err != nil {
			return err
		}
		return contract.WriteInt64(m.st, types.Key(k), v)
	default:
		return fmt.Errorf("unknown opcode %d", byte(op))
	}
}

func (m *machine) jump(to int) error {
	if to < 0 || to > len(m.prog.Code) {
		return ErrBadJump
	}
	m.pc = to
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// VMContract adapts a Program to the contract.Contract interface so
// bytecode can be registered under a name like any native contract.
type VMContract struct {
	ContractName string
	Prog         *Program
	Lim          Limits
}

// Name implements contract.Contract.
func (c *VMContract) Name() string { return c.ContractName }

// Execute implements contract.Contract.
func (c *VMContract) Execute(st contract.State, args [][]byte) error {
	return Run(c.Prog, st, args, c.Lim)
}
