package mc

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"hlfi/internal/machine"
	"hlfi/internal/mem"
	"hlfi/internal/x86"
)

// TestOperandForms runs operand forms that codegen does not emit, and
// so only the generic read/write path executes, through the simulator
// and the pre-decoded engine, and requires identical errors, exit
// values, executed counts, registers and memory.
func TestOperandForms(t *testing.T) {
	g := int64(mem.GlobalsBase)
	half := int64(math.Float64bits(0.5))
	I := func(op x86.Opcode, dst, src x86.Operand, size uint8) x86.Instr {
		return x86.Instr{Op: op, Dst: dst, Src: src, Size: size}
	}
	// Every case starts with RBX at the globals, RCX = 3, RDX = -5 and
	// XMM1 = 0.5; the globals hold bytes 1..64.
	cases := map[string][]x86.Instr{
		"index-only address": {
			I(x86.MOV, x86.R(x86.RSI), x86.Imm(g-24), 8),
			I(x86.MOV, x86.R(x86.RAX), x86.Mem(x86.RegNone, x86.RCX, 8, g), 8),
			I(x86.MOV, x86.Mem(x86.RegNone, x86.RCX, 4, g+4), x86.R(x86.RDX), 4),
			I(x86.LEA, x86.R(x86.RDI), x86.Mem(x86.RegNone, x86.RCX, 2, 40), 8),
			I(x86.ADD, x86.R(x86.RAX), x86.Mem(x86.RegNone, x86.RCX, 1, g), 2),
			I(x86.MOVSX, x86.R(x86.R8), x86.Mem(x86.RegNone, x86.RCX, 8, g+1), 1),
		},
		"mov memory to memory": {
			I(x86.MOV, x86.Mem(x86.RBX, x86.RegNone, 1, 16), x86.Mem(x86.RBX, x86.RCX, 8, 0), 8),
			I(x86.MOV, x86.Abs(g+40), x86.Mem(x86.RBX, x86.RegNone, 1, 3), 2),
			I(x86.MOV, x86.R(x86.RAX), x86.Abs(g+16), 8),
		},
		"xmm as an integer source": {
			I(x86.MOV, x86.R(x86.RAX), x86.X(x86.XMM1), 8),
			I(x86.MOV, x86.Mem(x86.RBX, x86.RegNone, 1, 8), x86.X(x86.XMM1), 8),
			I(x86.ADD, x86.R(x86.RCX), x86.X(x86.XMM1), 4),
			I(x86.MOVZX, x86.R(x86.RSI), x86.X(x86.XMM1), 8),
			I(x86.CMP, x86.X(x86.XMM1), x86.R(x86.RAX), 8),
			I(x86.SETE, x86.R(x86.RDI), x86.Operand{}, 1),
		},
		"alu into memory": {
			I(x86.ADD, x86.Mem(x86.RBX, x86.RegNone, 1, 0), x86.Imm(-7), 4),
			I(x86.IMUL, x86.Mem(x86.RBX, x86.RCX, 2, 8), x86.R(x86.RDX), 2),
			I(x86.SAR, x86.Mem(x86.RBX, x86.RegNone, 1, 24), x86.Imm(3), 1),
			I(x86.XOR, x86.Abs(g+32), x86.Mem(x86.RBX, x86.RegNone, 1, 40), 8),
			I(x86.NEG, x86.Mem(x86.RBX, x86.RegNone, 1, 48), x86.Operand{}, 4),
			I(x86.MOV, x86.R(x86.RAX), x86.Mem(x86.RBX, x86.RegNone, 1, 0), 8),
		},
		"compare and test through memory": {
			I(x86.CMP, x86.Mem(x86.RBX, x86.RegNone, 1, 0), x86.Mem(x86.RBX, x86.RegNone, 1, 8), 8),
			I(x86.SETB, x86.R(x86.RSI), x86.Operand{}, 1),
			I(x86.MOV, x86.Mem(x86.RBX, x86.RegNone, 1, 8), x86.Imm(1), 1),
			I(x86.CMP, x86.Mem(x86.RBX, x86.RegNone, 1, 0), x86.Mem(x86.RBX, x86.RegNone, 1, 8), 1),
			I(x86.SETB, x86.R(x86.R9), x86.Operand{}, 1),
			I(x86.TEST, x86.R(x86.RDX), x86.Mem(x86.RBX, x86.RegNone, 1, 2), 1),
			I(x86.SETE, x86.R(x86.RDI), x86.Operand{}, 1),
			I(x86.TEST, x86.Mem(x86.RBX, x86.RCX, 1, 0), x86.Imm(0x80), 2),
			I(x86.SETNE, x86.R(x86.RAX), x86.Operand{}, 1),
		},
		"sse from registers, immediates and memory": {
			I(x86.MOVSD, x86.X(x86.XMM2), x86.Imm(half), 8),
			I(x86.MOVSD, x86.X(x86.XMM3), x86.R(x86.RBX), 8),
			I(x86.ADDSD, x86.X(x86.XMM2), x86.R(x86.RCX), 8),
			I(x86.MULSD, x86.X(x86.XMM2), x86.Imm(half), 8),
			I(x86.MOVSD, x86.Mem(x86.RBX, x86.RegNone, 1, 56), x86.X(x86.XMM1), 8),
			I(x86.UCOMISD, x86.X(x86.XMM1), x86.Mem(x86.RBX, x86.RegNone, 1, 56), 8),
			I(x86.SETE, x86.R(x86.RSI), x86.Operand{}, 1),
			I(x86.UCOMISD, x86.X(x86.XMM2), x86.Imm(half), 8),
			I(x86.SETA, x86.R(x86.RDI), x86.Operand{}, 1),
			I(x86.MOV, x86.R(x86.RAX), x86.X(x86.XMM2), 8),
		},
		"cold opcodes through memory": {
			I(x86.PUSH, x86.Mem(x86.RBX, x86.RCX, 8, 0), x86.Operand{}, 8),
			I(x86.POP, x86.R(x86.RSI), x86.Operand{}, 8),
			I(x86.MOV, x86.R(x86.RAX), x86.Imm(1000), 8),
			I(x86.CQO, x86.Operand{}, x86.Operand{}, 8),
			I(x86.IDIV, x86.Operand{}, x86.Mem(x86.RBX, x86.RegNone, 1, 0), 8),
			I(x86.CVTSI2SD, x86.X(x86.XMM4), x86.Mem(x86.RBX, x86.RegNone, 1, 5), 2),
			I(x86.CVTTSD2SI, x86.R(x86.RDI), x86.Mem(x86.RBX, x86.RegNone, 1, 16), 4),
		},
		"fault in a generic read": {
			I(x86.MOV, x86.R(x86.RAX), x86.Imm(7), 8),
			I(x86.ADD, x86.Mem(x86.RegNone, x86.RCX, 8, 8), x86.Imm(1), 8),
		},
		"fault in a generic write": {
			I(x86.MOV, x86.Mem(x86.RegNone, x86.RCX, 8, 8), x86.Mem(x86.RBX, x86.RegNone, 1, 0), 8),
		},
	}
	image := make([]byte, 64)
	for i := range image {
		image[i] = byte(i + 1)
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			instrs := []x86.Instr{
				I(x86.MOV, x86.R(x86.RBX), x86.Imm(g), 8),
				I(x86.MOV, x86.R(x86.RCX), x86.Imm(3), 8),
				I(x86.MOV, x86.R(x86.RDX), x86.Imm(-5), 8),
				I(x86.MOVSD, x86.X(x86.XMM1), x86.Imm(half), 8),
			}
			instrs = append(append(instrs, body...), I(x86.RET, x86.Operand{}, x86.Operand{}, 8))
			p := &x86.Program{Instrs: instrs}
			cp, err := Compile(p, image, mem.GlobalsBase)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(p, image, mem.GlobalsBase, io.Discard)
			mRC, mErr := m.Run()
			e := New(cp, io.Discard)
			eRC, eErr := e.Run()
			if fmt.Sprint(mErr) != fmt.Sprint(eErr) || mRC != eRC {
				t.Fatalf("machine = (%d, %v), compiled = (%d, %v)", mRC, mErr, eRC, eErr)
			}
			if wantFault := strings.HasPrefix(name, "fault"); wantFault != (mErr != nil) {
				t.Fatalf("error %v, want a fault: %v", mErr, wantFault)
			}
			if m.Executed() != e.Executed() {
				t.Fatalf("executed: machine %d, compiled %d", m.Executed(), e.Executed())
			}
			for r := x86.Reg(1); r < x86.NumRegs; r++ {
				if m.Reg(r) != e.regs[r] {
					t.Errorf("%s: machine %#x, compiled %#x", r, m.Reg(r), e.regs[r])
				}
			}
			for a := mem.GlobalsBase; a < mem.GlobalsBase+uint64(len(image)); a += 8 {
				mv, _ := m.Memory().Read(a, 8)
				ev, _ := e.mem.Read(a, 8)
				if mv != ev {
					t.Errorf("memory %#x: machine %#x, compiled %#x", a, mv, ev)
				}
			}
		})
	}
}
